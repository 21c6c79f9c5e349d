"""What "trace-identical" means for a change under ``src/repro/oram/``.

The standing audit subjects are replayed once and their whole event
stream is hashed two ways. The *structural* digest (op and region of
every event, no addresses) does not depend on the numpy version and is
pinned here: moving it moves what the attacker sees. The *exact* digest
also covers every address, so it follows the RNG stream; it is printed,
not pinned — compare it between the parent commit and the change on one
machine (``pytest -s`` shows both, the verify skill has the command).
"""

import hashlib

import numpy as np

from repro.oblivious.trace import OPS, REGIONS, MemoryTracer, Trace
from repro.oram.lookahead import lookahead_subjects
from repro.telemetry.audit import standard_subjects

EVENT_COUNT = 1_839_654
STRUCTURAL_DIGEST = \
    "0075ab5b1addd4e63054be9e578aee69c63fb4a0ea3ce43dc8b9e37e5a086812"


def structural_bytes(trace: Trace) -> bytes:
    """``"{op}|{region};"`` for every event of ``trace``, in order: each
    distinct (op, region) pair is formatted once, then gathered."""
    width = len(REGIONS.names)
    pairs = trace.ops.astype(np.int64) * width + trace.regions
    distinct, inverse = np.unique(pairs, return_inverse=True)
    words = np.array([f"{OPS.names[pair // width]}|"
                      f"{REGIONS.names[pair % width]};".encode()
                      for pair in distinct.tolist()], dtype=object)
    return b"".join(words[inverse].tolist())


def trace_digests():
    """(event count, structural digest, exact digest) of the standing
    subjects at seeds 0 then 9, each secret replayed into a fresh tracer."""
    count = 0
    structural = hashlib.sha256()
    exact = hashlib.sha256()
    for seed in (0, 9):
        for subject in (standard_subjects(64, 16, 12, seed=seed)
                        + lookahead_subjects(seed=seed)):
            for secret in subject.secrets:
                tracer = MemoryTracer()
                subject.run(tracer, secret)
                count += len(tracer)
                structural.update(structural_bytes(tracer.snapshot()))
                exact.update(tracer.digest().encode())
    return count, structural.hexdigest(), exact.hexdigest()


def test_trace_digest_is_pinned():
    count, structural, exact = trace_digests()
    print(f"\ntrace events {count}\nstructural digest {structural}"
          f"\nexact digest {exact}")
    assert count == EVENT_COUNT
    assert structural == STRUCTURAL_DIGEST
