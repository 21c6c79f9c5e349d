"""``python -m repro.telemetry.audit`` — the standing leakage audit.

A package ``__main__`` rather than ``if __name__ == "__main__"`` in the
module: ``repro.telemetry`` imports the audit names eagerly, so running the
module itself as ``__main__`` would execute it twice (RuntimeWarning).
"""

from repro.telemetry.audit import main

if __name__ == "__main__":
    raise SystemExit(main())
