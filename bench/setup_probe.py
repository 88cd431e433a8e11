"""Time one fresh set-up: import mpirecon and parse a workload config.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG_FILE BASE_DIR

Prints the seconds from just before ``import mpirecon`` to the end of
``PipelineConfig.from_string`` and ``validate``.  Runs in its own
process so that the import is a real first import.
"""

import sys
import time


def main():
    src, config_file, base_dir = sys.argv[1:4]
    with open(config_file) as f:
        text = f.read()
    sys.path.insert(0, src)
    start = time.perf_counter()
    import mpirecon

    mpirecon.PipelineConfig.from_string(text, base_dir=base_dir).validate()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
