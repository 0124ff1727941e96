"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SCENE_FILE

Times ``import finslerem``, loading the scene with its load-time
validation, and the first build of the lazy series product tables up to
order 4, and prints the seconds on stdout.
"""

import sys
import time


def main(src, scene_path):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import finslerem
    from finslerem.series import MAX_ORDER, TSeries

    finslerem.load_scene(scene_path)
    for k in range(1, MAX_ORDER + 1):
        TSeries.constant(1.0, k) * TSeries.constant(1.0, k)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
