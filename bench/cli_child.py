"""Run one dvrfilt CLI command with every tracer hook installed.

The traced run of the cli workload starts this script in place of
``python -m dvrfilt.cli``.  Exit code and stdout are the CLI's own; the
span aggregates follow as one JSON line at the end of stderr.
"""

import json
import sys

import tracer


def main() -> int:
    tr = tracer.Tracer()
    tr.install()
    code = sys.modules["dvrfilt.cli"].main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tr.dump()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
