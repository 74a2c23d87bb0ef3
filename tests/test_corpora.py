"""Byte-identity corpus of the CHSH spectrum path, recorded by package version.

About 1,600 configurations, drawn with ``random.Random`` (whose stream,
unlike that of numpy's ``Generator``, does not depend on the numpy
version), follow a first block of corners: t0 = t1, settings 1e-9 rad
apart, the optimal angles and t0 near 0.  For each block of 200 the test
hashes the ``chsh_spectrum`` fields of every configuration, the
``chsh_spectra`` fields of the whole block as one stack and a seeded
``sample_outcomes`` draw at n = 100.  ``CORPUS_DIGESTS`` keeps one digest
per block under the version it was recorded at, as ``PIN_DIGESTS`` in
``test_golden.py`` does, so a change that moves a byte here must bump
``__version__`` and record the new digests; the failure says how many
blocks moved.
"""

import hashlib
import random

import numpy as np

import bellcheck
from bellcheck import AngleConfig, chsh_spectra, chsh_spectrum, sample_outcomes

BLOCK = 200

CORNERS = [
    AngleConfig.from_degrees(0, 90, 22.5, -22.5),  # t0 = t1
    AngleConfig.from_degrees(10, 100, 30, 75),  # t0 = t1
    AngleConfig(0.3, 0.3 + 1e-9, 1.1, 0.2),  # settings 1e-9 rad apart
    AngleConfig(0.3, 1.0, 0.7, 0.7 + 1e-9),
    AngleConfig.from_degrees(0, 45, 22.5, -22.5),  # optimal: t0 = 2 sqrt(2)
    AngleConfig.from_degrees(0, 45, 22.5, 112.5),
    AngleConfig.from_degrees(0, 45, 0, 45),  # t0 = 0
    AngleConfig.from_degrees(0, 45, 0, 45.005),  # t0 near 0
    AngleConfig.from_degrees(0, 45, 0, 45.000000001),
]

CORPUS_DIGESTS = {
    "0.3.0": (
        "05a34e2f518ac2a25ae918289309dc0db591b636e62f2e8e1167d6d6e92af406",
        "709e1678c4c976a85870363cdd9e1a6795531c9a16325935fec4b06b5c7e69e5",
        "aaa5f09d2cb3827824e7288e19987cad51ce8a808cf077fb523ea23f3760f5c8",
        "61429cac839de8bd48bb48051f378f278ab18c254c2d300ea7e376707771b8d3",
        "fede4d6f4c0c89e4767757edc4cef088807e2b5792520bb85b0c1f542096fe9f",
        "9913b0024823f9fef342efe5ee588edf3d3bb31a90631336966e619fe614bb68",
        "819ffddffbb0a2ca175b8fff9da4511c69176f089ca409c89b2301d4940885d4",
        "d7a8ede2b3688541b36942a29db23b99b09092d800977a306b2eabb74972a2dd",
    ),
}


def block_digest(configs: list, first_seed: int) -> str:
    h = hashlib.sha256()
    for seed, cfg in enumerate(configs, first_seed):
        single = chsh_spectrum(cfg)
        for value in (single.t0, single.t1, single.w_plus, single.w_minus):
            h.update(f"{type(value).__name__}:{value.hex()};".encode("ascii"))
        h.update(single.eigenvalues.tobytes())
        draw = sample_outcomes(cfg, 100, seed)
        h.update(f"{draw.mean.hex()},{draw.stderr.hex()},{draw.n};".encode("ascii"))
    stack = chsh_spectra(*(np.array([getattr(c, name) for c in configs]) for name in ("alpha1", "alpha2", "beta1", "beta2")))
    for field in (stack.t0, stack.t1, stack.w_plus, stack.w_minus, stack.eigenvalues):
        h.update(field.tobytes())
    return h.hexdigest()


def test_spectrum_path_bytes_belong_to_the_package_version():
    rng = random.Random(20260)
    configs = CORNERS + [AngleConfig(*(rng.uniform(-4.0, 4.0) for _ in range(4))) for _ in range(1600 - len(CORNERS))]
    digests = tuple(block_digest(configs[i : i + BLOCK], i) for i in range(0, len(configs), BLOCK))
    version = bellcheck.__version__
    assert version in CORPUS_DIGESTS, f"record the digests of {version}: {digests}"
    recorded = CORPUS_DIGESTS[version]
    moved = sum(a != b for a, b in zip(digests, recorded)) + abs(len(digests) - len(recorded))
    assert moved == 0, f"{moved} of {len(recorded)} blocks moved: bump __version__ and record {digests}"

