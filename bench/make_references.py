"""Write bench/reference_digests.json: the input and output sha256 (SMF plus
cycle log) of one session per workload for seeds 0-9.  `run.py` reports
whether a run still matches them, the byte-identity check for a speedup.

    python3 bench/make_references.py
"""

import json
import logging

from run import OUT, ROOT, locate_program

SEEDS = range(10)


def main() -> None:
    locate_program()
    from measure import RejectionCounter, run_session
    from workloads import WORKLOADS, make_workload

    rejections = RejectionCounter()
    logging.getLogger("ams").addHandler(rejections)
    references = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            workdir = OUT / f"{name}-{seed}"
            workload = make_workload(name, seed, workdir)
            session = run_session(workload, workdir, rejections, timed=False)
            references[f"{name}/{seed}"] = {"input": workload.input_digest,
                                             "output": session.digest}
    path = ROOT / "bench" / "reference_digests.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
