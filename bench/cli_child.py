"""Run one setmeans command line with spans, for the traced `cli` pass.

    python3 bench/cli_child.py <dump.json> <setmeans arguments...>

Times `import setmeans`, wraps the public functions (bench/spans.py), runs
`setmeans.cli.main` and writes the spans to <dump.json>, even when the
command raises.  The exit code is the command's own.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, cache_info  # noqa: E402

t0 = time.perf_counter()
import setmeans  # noqa: E402
import setmeans.cli  # noqa: E402

import_s = time.perf_counter() - t0


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    before = cache_info(setmeans)
    tracer.install()
    try:
        return setmeans.cli.main(argv)
    finally:
        tracer.uninstall()
        main_rec = tracer.stats.get(("cli.main", None), [0, 0.0, 0.0])
        Path(dump_path).write_text(
            json.dumps(
                {
                    "import_s": import_s,
                    "main_s": main_rec[1],
                    "main_self_s": main_rec[2],
                    "trace": tracer.dump(before, cache_info(setmeans)),
                }
            )
        )


if __name__ == "__main__":
    sys.exit(main())
