"""QWM solutions pinned bit for bit.

The benchmark checks its outputs against references to 1%, so a kernel
rewrite that moves a last bit passes there unseen.  These literals were
recorded from the region Newton as it computed on numpy scalars; every
solve must reproduce them exactly: the critical times, the region,
Newton-iteration and table-query counts, and the 50% delay.

Cases: the paper-stacks circuits (NAND2-4 with degraded precharge, seeded
K = 5..10 stacks), a ramp-driven NOR2 rise (the PMOS frame and nonzero
Miller injection), a ramp-driven NAND3 fall and the Fig. 10 decoder-tree
leaf (pi wire macros).  Every case starts from a switch-level initial
state, so no golden-model DC solve feeds the pinned bits.
"""

import numpy as np
import pytest

from repro.circuit import builders
from repro.core import WaveformEvaluator
from repro.spice import ConstantSource, RampSource, StepSource

T_SWITCH = 20e-12
#: Full-swing time of the ramp-driven cases [s].
T_RISE = 60e-12


def _nand(tech, n):
    inputs = {"a0": StepSource(0.0, tech.vdd, T_SWITCH)}
    inputs.update({f"a{i}": ConstantSource(tech.vdd) for i in range(1, n)})
    return (builders.nand_gate(tech, n), "out", "fall", inputs,
            {"precharge": "degraded"}, T_SWITCH)


def _stack(tech, k):
    stage = builders.nmos_stack(tech, k, load=10e-15,
                                rng=np.random.default_rng([0, k]))
    inputs = {"g1": StepSource(0.0, tech.vdd, T_SWITCH)}
    inputs.update({f"g{j}": ConstantSource(tech.vdd)
                   for j in range(2, k + 1)})
    initial = {node.name: tech.vdd for node in stage.internal_nodes}
    return (stage, "out", "fall", inputs,
            {"precharge": "full", "initial": initial}, T_SWITCH)


def _ramp_nor2_rise(tech):
    inputs = {"a0": RampSource(tech.vdd, 0.0, T_SWITCH, T_RISE),
              "a1": ConstantSource(0.0)}
    return (builders.nor_gate(tech, 2), "out", "rise", inputs,
            {"precharge": "full"}, T_SWITCH + 0.5 * T_RISE)


def _ramp_nand3_fall(tech):
    inputs = {"a0": RampSource(0.0, tech.vdd, T_SWITCH, T_RISE),
              "a1": ConstantSource(tech.vdd), "a2": ConstantSource(tech.vdd)}
    return (builders.nand_gate(tech, 3), "out", "fall", inputs,
            {"precharge": "degraded"}, T_SWITCH + 0.5 * T_RISE)


def _fig10_leaf(tech):
    stage = builders.decoder_tree(tech, levels=3, unit_wire_length=60e-6)
    inputs = {"phi": StepSource(0.0, tech.vdd, T_SWITCH)}
    for j in range(3):
        inputs[f"A{j}"] = ConstantSource(tech.vdd)
        inputs[f"A{j}b"] = ConstantSource(0.0)
    initial = {node.name: tech.vdd for node in stage.internal_nodes}
    return (stage, "t111", "fall", inputs, {"initial": initial}, T_SWITCH)


CASES = {
    "nand2": lambda tech: _nand(tech, 2),
    "nand3": lambda tech: _nand(tech, 3),
    "nand4": lambda tech: _nand(tech, 4),
    **{f"stack{k}": (lambda tech, k=k: _stack(tech, k))
       for k in range(5, 11)},
    "nor2_ramp_rise": _ramp_nor2_rise,
    "nand3_ramp_fall": _ramp_nand3_fall,
    "fig10_t111": _fig10_leaf,
}


def solve_case(tech, library, name):
    """``(critical_times, steps, newton_iterations, device_evaluations,
    delay)`` of one case, solved on a fresh evaluator."""
    stage, output, direction, inputs, kwargs, t_input = CASES[name](tech)
    evaluator = WaveformEvaluator(tech, library=library)
    solution = evaluator.evaluate(stage, output, direction, inputs,
                                  **kwargs)
    stats = solution.stats
    return (tuple(solution.critical_times), stats.steps,
            stats.newton_iterations, stats.device_evaluations,
            solution.delay(t_input=t_input))


#: ``solve_case`` of every case, recorded before the rewrite.
PINNED = {
    "nand2": (
        (0.0, 2e-11, 2.2418291157618287e-11, 2.4256280535786758e-11,
         2.968341824423819e-11, 4.816463327521406e-11, 6.016296816919945e-11,
         7.241341575654227e-11, 8.431364808289385e-11, 9.606895831954582e-11,
         1.0777528412797386e-10, 1.1992785061519633e-10, 1.335739272050565e-10,
         1.5042766166341284e-10, 1.6885856270408015e-10,
         1.8978885233818086e-10),
        14, 55, 206, np.float64(8.777528412797386e-11)),
    "nand3": (
        (0.0, 2e-11, 2.2417257866529547e-11, 2.4254431121563218e-11,
         6.958620595611934e-11, 9.295675703748066e-11, 1.1469032061580885e-10,
         1.3645431035134124e-10, 1.5731396385741708e-10,
         1.7842244818776466e-10, 2.0067624942953253e-10,
         2.2644400490277004e-10, 2.5830652948972697e-10,
         2.9291367995371023e-10, 3.308945872104125e-10),
        13, 62, 309, np.float64(1.5842244818776465e-10)),
    "nand4": (
        (0.0, 2e-11, 2.2417257866529547e-11, 2.4254431121563218e-11,
         9.379835519220724e-11, 1.333492497263036e-10, 1.672704749000668e-10,
         2.0160698088314455e-10, 2.3390637493913843e-10,
         2.6701789835719607e-10, 3.025973300933197e-10, 3.4398431930859834e-10,
         3.9501909768414406e-10, 4.496206856407877e-10, 5.093090191521406e-10),
        13, 73, 479, np.float64(2.470178983571961e-10)),
    "stack5": (
        (0.0, 2e-11, 2.5011615467422986e-11, 2.963620314611778e-11,
         4.199280559458409e-11, 4.631779568268504e-11, 6.331182986848539e-11,
         6.921341616488426e-11, 8.868460639730027e-11, 9.543605548152019e-11,
         1.2093074047967162e-10, 1.3271863467093556e-10,
         1.4329335051026922e-10, 1.534035060622299e-10, 1.6360516158909775e-10,
         1.7506817932354212e-10, 1.8973320406388907e-10,
         2.1037146252050526e-10, 2.346417172580344e-10, 2.633284870006192e-10),
        18, 99, 950, np.float64(1.4360516158909774e-10)),
    "stack6": (
        (0.0, 2e-11, 2.431933567551092e-11, 2.8420364270020633e-11,
         4.212939474789031e-11, 4.711211144182319e-11, 6.691409293623158e-11,
         7.407557709661787e-11, 9.951265438853616e-11, 1.08570095149143e-10,
         1.392166482465234e-10, 1.5028721008375458e-10, 1.7993703275413885e-10,
         1.9380101222758978e-10, 2.063575732229454e-10, 2.1852134522754729e-10,
         2.3208134260588284e-10, 2.502748987317739e-10, 2.7647188289863564e-10,
         3.141192282717793e-10, 3.581529824816318e-10, 4.1045979101124447e-10),
        20, 112, 1153, np.float64(2.1208134260588283e-10)),
    "stack7": (
        (0.0, 2e-11, 2.7550836640905897e-11, 3.412320706001171e-11,
         5.440272686067415e-11, 6.192057920223029e-11, 8.702536629489717e-11,
         9.595902376056017e-11, 1.2835527915772184e-10, 1.4004198173639122e-10,
         1.7801769962650863e-10, 1.9217150705341159e-10, 2.274100609662338e-10,
         2.401050955980357e-10, 2.818746933646721e-10, 3.0127343635219073e-10,
         3.182163938384365e-10, 3.3379893698606576e-10, 3.499256931973539e-10,
         3.700406956028941e-10, 4.003033636382532e-10, 4.504465424037333e-10,
         5.15684168924007e-10, 5.961460311703324e-10),
        22, 123, 1380, np.float64(3.299256931973539e-10)),
    "stack8": (
        (0.0, 2e-11, 2.4646081666618855e-11, 2.8989558019355146e-11,
         3.8864288328237936e-11, 4.2226667875884413e-11, 5.552723443410458e-11,
         6.001505970329202e-11, 8.092946268097085e-11, 8.835196266111517e-11,
         1.1592387278563641e-10, 1.2613386092778285e-10,
         1.6204243618031328e-10, 1.75360029764318e-10, 2.1679767398910296e-10,
         2.3229627840579635e-10, 2.71845295817618e-10, 2.907540131423351e-10,
         3.0809168706605106e-10, 3.250359058598084e-10, 3.4522986082482713e-10,
         3.75230487828831e-10, 4.19930085376211e-10, 4.821676183940346e-10,
         5.535158005882921e-10, 6.380719846302804e-10),
        24, 143, 1764, np.float64(3.2522986082482715e-10)),
    "stack9": (
        (0.0, 2e-11, 2.5286610624258867e-11, 3.011780892784114e-11,
         4.148874714060727e-11, 4.539730283897253e-11, 6.353829358122413e-11,
         6.984466327112207e-11, 9.424868081551888e-11, 1.0312562782156393e-10,
         1.28340016751423e-10, 1.37289338482957e-10, 1.6933546574215375e-10,
         1.8062632525029376e-10, 2.1493537661309112e-10,
         2.2736523036759414e-10, 2.68090053517594e-10, 2.830442487975141e-10,
         3.219386961874467e-10, 3.4066841428498595e-10, 3.5805236895148274e-10,
         3.751119460139014e-10, 3.9508454239305497e-10, 4.229815598157006e-10,
         4.6202664158702115e-10, 5.16870515825134e-10, 5.819282527408016e-10,
         6.616637243330591e-10),
        26, 161, 2208, np.float64(3.75084542393055e-10)),
    "stack10": (
        (0.0, 2e-11, 2.417982738645513e-11, 2.8174642466079988e-11,
         4.090346318722484e-11, 4.5489339879418835e-11, 6.311824118057558e-11,
         6.93816533125017e-11, 9.454514771200261e-11, 1.0349470129768968e-10,
         1.280532614848757e-10, 1.3670550900673157e-10, 1.6795209464444753e-10,
         1.7889922721075404e-10, 2.2545766833842793e-10,
         2.4322219207155137e-10, 2.8753984160938543e-10,
         3.0429592616621203e-10, 3.5440738221203045e-10,
         3.7220268741681597e-10, 4.222507247479994e-10, 4.46895450024187e-10,
         4.699495241218256e-10, 4.920769691631184e-10, 5.172176890442975e-10,
         5.514703611999128e-10, 6.016211998979682e-10, 6.768416186640956e-10,
         7.665868206324717e-10, 8.749410265362285e-10),
        28, 177, 2558, np.float64(4.972176890442975e-10)),
    "nor2_ramp_rise": (
        (0.0, 3.181818181818182e-11, 6.45098977713504e-11,
         7.226253191423309e-11, 7.419689893567482e-11, 7.613126595711655e-11,
         7.806563297855826e-11, 8e-11, 8.003213531628876e-11,
         9.37891689511431e-11, 1.0135699094899974e-10, 1.0818210543574634e-10,
         1.1489361602583882e-10, 1.2197668776758104e-10, 1.300640681461142e-10,
         1.4009093911784055e-10, 1.5387016485332125e-10,
         1.7079324199520851e-10, 1.9264574435895516e-10),
        17, 60, 208, np.float64(7.197668776758105e-11)),
    "nand3_ramp_fall": (
        (0.0, 3e-11, 4.2499999999999995e-11, 5.5e-11, 6.75e-11, 8e-11,
         9.635620929648961e-11, 1.2031110921350507e-10, 1.4218155815526726e-10,
         1.6360560886696783e-10, 1.8462294218871044e-10, 2.056397957491702e-10,
         2.2793731229365603e-10, 2.536585959069924e-10, 2.8555489178291365e-10,
         3.201352596503837e-10, 3.581769086119475e-10),
        15, 56, 287, np.float64(1.556397957491702e-10)),
    "fig10_t111": (
        (0.0, 2e-11, 2.4818012790350206e-11, 2.9302775855629717e-11,
         5.184586768707411e-11, 6.033940469922822e-11, 1.1439248613308075e-10,
         1.3398541364504971e-10, 2.1180830474156387e-10,
         2.4761476023414613e-10, 2.800286757485385e-10, 3.1161322278401505e-10,
         3.4395318225113206e-10, 3.8051477093125556e-10, 4.264804421330381e-10,
         4.877002853316042e-10, 5.555590019932165e-10, 6.317703800890458e-10),
        16, 68, 396, np.float64(3.239531822511321e-10)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_qwm_solution_pinned(tech, library, name):
    solved = solve_case(tech, library, name)
    assert solved == PINNED[name]
    # The delay keeps its numpy scalar type, too.
    assert type(solved[-1]) is type(PINNED[name][-1])
