"""Write the synthetic corpus as an ORL-layout PGM tree: ROOT/s<subject>/<sample>.pgm.

Usage: python3 bench/corpus_tree.py ROOT SEED SUBJECTS SAMPLES ROWS COLS

Runs in its own process so that building the corpus does not count towards
the peak memory of the measured process.
"""

import shutil
import sys
from pathlib import Path

from faceid.dataset import synth_corpus, write_pgm


def main(argv: list[str]) -> None:
    root = Path(argv[0])
    seed, subjects, samples, rows, cols = (int(v) for v in argv[1:6])
    shutil.rmtree(root, ignore_errors=True)
    for image in synth_corpus(seed, subjects, samples, rows, cols).images:
        folder = root / f"s{image.subject_id}"
        folder.mkdir(parents=True, exist_ok=True)
        write_pgm(image, folder / f"{image.sample_id}.pgm")


if __name__ == "__main__":
    main(sys.argv[1:])
