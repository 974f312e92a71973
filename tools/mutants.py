"""Run one-line mutants of ``src/teesplit`` against the tests that should
kill them, and print ``killed``, ``survived`` or ``equivalent`` for each.

Each entry of ``MUTANTS`` names a module, a text that occurs exactly once
in it, the text that replaces it, and the test files to run. For each
entry the tool copies ``src/`` into a temporary directory, applies that one
mutant there, and runs only the named test files against the copy, one
mutant at a time. A mutant is killed when a test fails, and survives when
they all pass. An entry may instead give the reason it is equivalent, in
which case it is not run. Run it from the root of a checkout:

    python3 tools/mutants.py

It exits 1 when a mutant survives or its text no longer occurs exactly
once, and 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# halving a step size lands on the 1e-14 floor itself only when it starts
# at 1e-14 * 2**k, so testing the floor with < or <= (> or >=) is alike
_FLOOR = "a step size is 1e-14 only if it starts at 1e-14 * 2**k"

# (module, old text, new text, test files, reason it is equivalent or None)
MUTANTS = [
    ("privacy.py", "value <= threshold and", "value < threshold and",
     ["tests/test_planner.py"], None),
    ("privacy.py", "worst_after <= threshold + slack",
     "worst_after < threshold + slack", ["tests/test_planner.py"], None),
    ("privacy.py", "cand[i] <= loss[i]", "cand[i] < loss[i]",
     ["tests/test_privacy.py"], None),
    ("privacy.py", "eps = 1e-12", "eps = 1e-6", ["tests/test_ssim.py"], None),
    ("privacy.py", "sizes[i] <= 1e-14", "sizes[i] < 1e-14",
     ["tests/test_privacy.py"], _FLOOR),
    ("privacy.py", "size > 1e-14", "size >= 1e-14",
     ["tests/test_privacy.py"], _FLOOR),
    ("privacy.py", "if refused:", "if False:", ["tests/test_privacy.py"],
     None),
    ("privacy.py", "held + cost > cap", "held + cost >= cap",
     ["tests/test_privacy.py"], None),
    ("privacy.py", "min(stale) >= 20", "min(stale) > 20",
     ["tests/test_privacy.py"], None),
    ("privacy.py", "lambda v: v >= 0, slack", "lambda v: v > 0, slack",
     ["tests/test_privacy.py"], None),
    ("privacy.py", "mix_seed(cfg.init_seed, bis[j], i)",
     "mix_seed(cfg.init_seed, j, i)", ["tests/test_privacy.py"], None),
    # max pooling's first maximum: a tie keeps the earlier offset
    ("engine.py", "(np.greater, cols[1], cols[0], q)",
     "(np.greater_equal, cols[1], cols[0], q)", ["tests/test_engine.py"],
     None),
    ("engine.py", "(np.greater, rc[i], prev, u)",
     "(np.greater_equal, rc[i], prev, u)", ["tests/test_engine.py"], None),
    ("engine.py", "acc[:n, pad:pad + h, pad:pad + w]", "acc[:n, :h, :w]",
     ["tests/test_engine.py"], None),
    ("engine.py", "if not math.isfinite(self._grad_dot()):", "if False:",
     ["tests/test_engine.py"], None),
    ("engine.py", "if not math.isfinite(self._x_dot()):", "if False:",
     ["tests/test_engine.py", "tests/test_privacy.py"], None),
    ("engine.py", "// (elements * 8)", "// elements",
     ["tests/test_engine.py"], None),
    ("engine.py", "axis=0, initial=0.0,", "axis=0,", ["tests/test_engine.py"],
     "on numpy 2.4 an add reduction over planes of -0.0 gives +0.0 "
     "without initial too"),
]


def run(root, module, old, new, tests):
    """``killed`` or ``survived`` for one mutant of ``src/teesplit/module``
    in a copy of ``root``'s ``src/``, tested by ``tests``; ``stale`` when
    ``old`` does not occur exactly once."""
    text = (root / "src" / "teesplit" / module).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        (src / "teesplit" / module).write_text(text.replace(old, new),
                                               encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            env=env, cwd=root, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    return "survived" if done.returncode == 0 else "killed"


def main(root):
    bad = 0
    for module, old, new, tests, reason in MUTANTS:
        verdict = "equivalent" if reason else run(root, module, old, new,
                                                  tests)
        bad += verdict in ("survived", "stale")
        print(f"{verdict:10} {module}: {old!r} -> {new!r}"
              + (f" ({reason})" if reason else ""), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(Path.cwd()))
