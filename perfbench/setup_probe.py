"""Child process behind ``setup_s``: import what one workload needs,
then print ``ready``.  Run as ``setup_probe.py WORKLOAD WORKDIR``."""

import sys
from pathlib import Path


def main(workload: str, work: Path) -> None:
    if workload == "sandwich":
        import repro.algorithms  # noqa: F401
        import repro.bounds  # noqa: F401
        import repro.core  # noqa: F401
        import repro.pebbling  # noqa: F401
    elif workload == "sweep":
        import repro.evaluation  # noqa: F401

        work.mkdir(parents=True, exist_ok=True)
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
