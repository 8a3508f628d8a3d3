"""Print the sha256 prefixes of the pipeline outputs that CHANGES.md pins.

Run from the repository root:

    python3 -m tests.pinned_outputs

It encodes tests/data/synthetic_raw.txt with its test affix lists, trains
with the template T = U00:%x[0,0] ... U03:%x[0,3] plus B and with T alone,
tags the encoded file with each model, writes the eval --out CSV report of
each tagged file against the encoded one, and runs ga-search --generations 2
and ga-search --folds 2 --generations 1, all with default settings
otherwise, in a temporary directory.  It then runs ga-search --generations 2
again with one usable CPU, so that the folds are fitted in this process and
not on a pool of workers; its two lines must equal the pooled run's.  Each
output's first 12 hex digits of sha256 are printed to stdout, one per line;
train's stop report goes to stderr as the CLI prints it.  Output is
deterministic, so a change that claims byte-identical outputs must leave
every line unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

from mwetag import ga
from mwetag.cli import dispatch

DATA = Path(__file__).parent / "data"
T = "".join(f"U0{i}:%x[0,{i}]\n" for i in range(4))


def run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = dispatch(argv)
    if status:
        sys.exit(f"mwetag {' '.join(argv)} exited {status}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        enc = str(out / "enc.col")
        run(
            "encode", str(DATA / "synthetic_raw.txt"),
            "--prefixes", str(DATA / "synthetic_prefixes.txt"),
            "--suffixes", str(DATA / "synthetic_suffixes.txt"),
            "--out", enc,
        )
        outputs = {"enc.col": enc}
        for name, body in (("T+B", T + "B\n"), ("T", T)):
            template, model, tagged, report = (
                out / f"{name}.{ext}" for ext in ("tpl", "model", "tag", "csv")
            )
            template.write_text(body, encoding="utf-8")
            run("train", enc, "--template", str(template), "--model", str(model))
            run("tag", enc, "--model", str(model), "--out", str(tagged))
            run("eval", enc, str(tagged), "--out", str(report))
            outputs[f"train model {name}"] = str(model)
            outputs[f"tag {name}"] = str(tagged)
            outputs[f"eval {name}"] = str(report)
        for name, options, cpus in (
            ("", ("--generations", "2"), ga._usable_cpus()),
            (" --folds 2", ("--folds", "2", "--generations", "1"), ga._usable_cpus()),
            (" serial", ("--generations", "2"), 1),
        ):
            template, history = str(out / f"ga{name}.tpl"), str(out / f"ga{name}.csv")
            with mock.patch.object(ga, "_usable_cpus", return_value=cpus):
                run("ga-search", enc, "--out", template, "--history", history, *options)
            outputs[f"ga-search{name} template"] = template
            outputs[f"ga-search{name} history"] = history
        for name, path in outputs.items():
            print(f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]}  {name}")


if __name__ == "__main__":
    main()
