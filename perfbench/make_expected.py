"""Write the reference answers under ``expected/`` from the current program.

Run from the repository root, only when grasscat's answers are meant to
change (they are the paper's tables, so that should be never):

    PYTHONPATH=src python3 perfbench/make_expected.py

The census reference keeps the counts, conjecture verdicts and class set of
``grasscat --json census 3 6``; the orbit reference keeps the members of
each orbit start at rotation 0.  ``sweep-classes.json`` is not a reference
but the fixed sample of (4,9) rim-pair classes that ext-sweep-4-9 rotates by
its seed.  Review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json

from grasscat import cli

import workloads as wl

ORBIT_STARTS = ({"start": [[1, 3, 5], [2, 4, 6]], "k": 3, "n": 6},
                {"start": [[1, 3, 5, 7]], "k": 4, "n": 8})


def grasscat_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"grasscat {' '.join(argv)} exited with {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def dumps(head: dict, key: str, items: list, indent: str = "") -> str:
    """``head`` plus ``key: items`` as JSON, one item per line."""
    body = ",\n".join(indent + "  " + item for item in items)
    return json.dumps(head)[:-1] + (", " if head else "") + f'"{key}": [\n{body}\n{indent}]}}'


def main() -> None:
    wl.EXPECTED.mkdir(exist_ok=True)
    out = wl.EXPECTED / "census-out"
    census = grasscat_json(wl.census_argv(str(out)))
    (out / f"census-{wl.CENSUS_K}-{wl.CENSUS_N}.json").unlink()
    out.rmdir()
    head = {key: census[key] for key in
            ("k", "n", "counts", "conjectures", "candidates_tested", "sampled")}
    classes = [json.dumps({key: e[key] for key in ("profiles", "a_vector", "classification")})
               for e in census["rank2_rigid"]]
    (wl.EXPECTED / wl.CENSUS_EXPECTED).write_text(dumps(head, "classes", classes) + "\n")

    classes = [json.dumps(pair) for pair in wl.sample_sweep_classes()]
    (wl.EXPECTED / "sweep-classes.json").write_text(dumps({}, "classes", classes) + "\n")

    orbits = []
    for spec in ORBIT_STARTS:
        doc = grasscat_json(wl.orbit_argv(spec, 0))
        members = [json.dumps({key: m[key] for key in ("rank", "a_vector", "rim", "profiles")})
                   for m in doc["members"]]
        orbits.append(dumps(dict(spec, period=doc["period"]), "members", members, "  "))
    (wl.EXPECTED / "orbits.json").write_text(dumps({}, "orbits", orbits) + "\n")


if __name__ == "__main__":
    main()
