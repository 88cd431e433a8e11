"""Quality numbers and output checks computed from a workload's outputs.

Nothing here imports mpirecon: the checks read the program's public
results (diagnostics rows, files on disk, arrays) and compare them with
references the benchmark computes itself.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np


def interior_rel_err(estimate, reference, border=2):
    """Relative L2 error over the interior, ``border`` pixels excluded on
    every side (acceptance criterion 4)."""
    inner = (slice(border, -border), slice(border, -border))
    ref = np.asarray(reference, dtype=float)[inner]
    est = np.asarray(estimate, dtype=float)[inner]
    return float(np.linalg.norm(est - ref) / np.linalg.norm(ref))


def scaled_rel_err(image, reference):
    """Relative L2 error of ``image`` against ``reference`` after the
    least-squares fit of a positive scale: min over s > 0 of
    ``|s image - reference| / |reference|`` (s = 0 if the fit is not positive)."""
    img = np.asarray(image, dtype=float).ravel()
    ref = np.asarray(reference, dtype=float).ravel()
    denom = float(img @ img)
    scale = max(float(img @ ref) / denom, 0.0) if denom > 0 else 0.0
    return float(np.linalg.norm(scale * img - ref) / np.linalg.norm(ref))


def diagnostics_row(rows, stage, record, field):
    """Value of one diagnostics row, or None when the program no longer
    writes it (absent is not an error and not a zero)."""
    for s, r, f, value in rows:
        if (s, r, f) == (stage, record, field):
            return value
    return None


def manifest_mismatch(out_dir):
    """Files listed in ``manifest.txt`` but missing on disk, and files on
    disk (other than the manifest) that it does not list."""
    with open(os.path.join(out_dir, "manifest.txt")) as f:
        listed = {line.strip() for line in f if line.strip()}
    on_disk = set()
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            on_disk.add(os.path.relpath(os.path.join(dirpath, name), out_dir))
    on_disk.discard("manifest.txt")
    return sorted(listed - on_disk), sorted(on_disk - listed)


def finite(value):
    return value is not None and math.isfinite(value)


def fingerprint(values):
    """Digest of quality numbers and iteration counts at full precision;
    equal digests mean the numbers repeated bit for bit."""
    text = repr(sorted((k, repr(v)) for k, v in values.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
