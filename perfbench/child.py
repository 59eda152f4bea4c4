"""One measured run of the doc2table CLI, in a fresh process.

Usage: ``python child.py SPEC.json``. The spec names the CLI arguments,
whether to trace, and where to write the result. Timing starts before
``doc2table.cli`` is imported, so set-up includes the import.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    started = time.perf_counter()
    import doc2table.cli as cli
    from probe import Probe

    probe = Probe(spec["trace"], spec.get("item_ids"))
    probe.install()
    cli_main = probe.root(cli.main)
    begin = time.perf_counter()
    code = cli_main(spec["argv"])
    end = time.perf_counter()

    result = {
        "code": code,
        "wall_s": end - begin,
        "setup_s": probe.first_item_at - started if probe.first_item_at is not None else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": dict(probe.counts),
    }
    if spec["trace"]:
        result["layers"] = probe.layer_metrics()
        result["self_s"] = probe.self_times()
        probe.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
