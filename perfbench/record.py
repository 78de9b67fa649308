"""Record the answers the benchmark's checks compare against.

Run from the root of a checkout, at the commit whose answers are recorded:

    python3 perfbench/record.py

It writes perfbench/expected/compute.json (value, witness, subsets checked
and certificate kind of every seed-0 solve) and perfbench/expected/
verify.json (each theorem's pass flag, instance count and failing
instances). certify-large needs no record: its reference is computed from
the definitions on every pass.
"""

import json

from one_pass import import_program
from workloads import EXPECTED_DIR, Compute, Verify


def main():
    mr = import_program()
    compute = Compute(mr, 0, None)
    answers = {item_id: Compute.summary(call()) for item_id, call in compute.items}
    verify = Verify(mr, 0, None)
    theorems = {item_id: Verify.summary(call()) for item_id, call in verify.items}
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, data in (("compute", answers), ("verify", theorems)):
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in data.items()]
        with open(EXPECTED_DIR / f"{name}.json", "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
