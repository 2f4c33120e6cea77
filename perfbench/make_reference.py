"""Store reference outputs for the benchmark inputs of seeds 0..N-1.

    python3 perfbench/make_reference.py --seeds 16

Run it on a commit whose outputs are trusted. Every output must pass the
recomputation checks before it is stored; the sweep is run with
GPL_THREADS=1. Existing entries are kept unless they are recomputed.
"""

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, required=True, help="benchmark seeds 0..N-1")
    args = ap.parse_args(argv)
    run.WORK.mkdir(exist_ok=True)
    reference = run.load_reference()
    for w in run.WORKLOADS.values():
        table = reference.setdefault(w.name, {})
        for seed in range(args.seeds * w.inputs):
            inp = run.make_input(w, seed)
            res = run.check_output(w, inp, run.call(w, inp, threads=1))
            table[str(seed)] = {"values": res.fingerprint, "digest": res.digest}
            print(f"{w.name} input {seed}: f1_u={res.f1_u:.4f} digest={res.digest}", flush=True)
        reference[w.name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
