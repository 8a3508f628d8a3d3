"""Regenerate the committed files under tests/data/.

Run from the repository root:

    python3 -m tests.make_fixtures

Output is deterministic, so a rerun must leave git clean.
"""

from __future__ import annotations

from pathlib import Path

from tests.conftest import make_recovery_raw

DATA = Path(__file__).parent / "data"
RAW_SEED = 17
RAW_SENTENCES = 50


def render_raw(sentences) -> str:
    blocks = []
    for sentence in sentences:
        blocks.append("\n".join(f"{w}\t{p}\t{lab}" for w, p, lab in sentence))
    return "\n\n".join(blocks) + "\n"


def main(target: Path = DATA) -> None:
    target.mkdir(exist_ok=True)
    raw = make_recovery_raw(RAW_SENTENCES, seed=RAW_SEED)
    (target / "synthetic_raw.txt").write_text(render_raw(raw), encoding="utf-8")
    (target / "synthetic_prefixes.txt").write_text("qqq\n", encoding="utf-8")
    (target / "synthetic_suffixes.txt").write_text("zb\nzi\nzo\n", encoding="utf-8")
    tokens = sum(len(s) for s in raw)
    print(f"wrote {RAW_SENTENCES} sentences / {tokens} tokens to {target}")


if __name__ == "__main__":
    main()
