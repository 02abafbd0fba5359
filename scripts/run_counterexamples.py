#!/usr/bin/env python3
"""Build every counter-example report, re-verify its claims, and print the
queue shapes, verdicts, and conclusions."""

import argparse
import json
from pathlib import Path

from txmonsim.scenarios import counterexample_suite, verify_report
from txmonsim.serialize import report_to_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None, help="directory for JSON bundles")
    args = parser.parse_args()

    failed = False
    for report in counterexample_suite():
        problems = verify_report(report)
        failed = failed or bool(problems)
        print(f"== {report.name} {'(VERIFICATION FAILED)' if problems else ''}")
        for claim in report.queue_claims:
            shapes = "  ->  ".join("[" + ", ".join(s) + "]" for s in claim.shapes)
            print(f"   queue {claim.trace}: {shapes}")
        for key in sorted(report.verdicts):
            print(f"   verdict {key}: {report.verdicts[key].kind}")
        for claim in report.obs_claims:
            rel = "==" if claim.expect_equal else "!="
            print(
                f"   obs[{claim.trace_a}] {rel} obs[{claim.trace_b}] "
                f"for {claim.subject} upto {claim.upto}"
            )
        print(f"   {report.conclusion}\n")
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{report.name}.json").write_text(
                json.dumps(report_to_json(report), indent=2, sort_keys=True)
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
