"""``python -m benchmarks.suite [args]`` runs ``run.py`` with the same args."""

import os
import runpy

runpy.run_path(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "run.py"), run_name="__main__")
