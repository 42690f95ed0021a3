"""Regenerate bench/long_braids.json, the fixed braids of `long_braids`.

    python3 bench/make_long_pool.py

Draws reduced 4-strand braid words of 40 to 50 crossings from a constant
stream and keeps, per core, the first ones whose closed-braid relators
total between LOW and HIGH letters.  Word growth is exponential and
heavy-tailed (one 49-crossing word reached 13.8M letters and 106 s), so
the band keeps each operation to tens of milliseconds while its cost is
still dominated by the size of the image words.  Short operations time
steadily on a shared host (see run.py); a band of 5,000 to 50,000
letters made operations of 100 to 300 ms.  A word is given up as soon
as its partial image passes HIGH, so no candidate costs more than a
kept one.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import braidact as ba  # noqa: E402
from workloads import LONG_CORES, LONG_POOL_FILE, LONG_STRANDS  # noqa: E402

STREAM_SEED = 1406
LENGTHS = (40, 50)
PER_CORE = 10
LOW, HIGH = 2_000, 10_000


def image_letters(rep, letters) -> int | None:
    """Letters of the braid's image words, or None once they pass HIGH."""
    endo = ba.Endo.identity(rep.n)
    for letter in letters:
        endo = endo.compose(ba.local_endo(rep, abs(letter), 1 if letter > 0 else -1))
        if sum(len(w) for w in endo.images) > HIGH:
            return None
    return sum(len(w) for w in endo.images)


def main() -> None:
    rng = random.Random(STREAM_SEED)
    choices = [i for i in range(1 - LONG_STRANDS, LONG_STRANDS) if i]
    pool = {}
    for kind, core in LONG_CORES.items():
        rep = ba.constant_rep(ba.AutF2.parse(core), LONG_STRANDS)
        kept = []
        while len(kept) < PER_CORE:
            length = rng.randint(*LENGTHS)
            word: list[int] = []
            while len(word) < length:
                letter = rng.choice(choices)
                if not word or word[-1] != -letter:
                    word.append(letter)
            size = image_letters(rep, word)
            if size is not None and size >= LOW:
                kept.append(word)
                print(f"{kind}: {len(word)} crossings, {size} image letters", file=sys.stderr)
        pool[kind] = kept
    header = {
        "stream_seed": STREAM_SEED,
        "lengths": LENGTHS,
        "image_letters": [LOW, HIGH],
        "strands": LONG_STRANDS,
    }
    lines = [f'  "{kind}": [\n' + ",\n".join(f"   {json.dumps(w)}" for w in words) + "\n  ]"
             for kind, words in pool.items()]
    text = '{\n "drawn": ' + json.dumps(header) + ',\n "braids": {\n' + ",\n".join(lines) + "\n }\n}\n"
    (BENCH / LONG_POOL_FILE).write_text(text)


if __name__ == "__main__":
    main()
