"""How fast this host runs right now, from a fixed reference workload.

The benchmark shares its CPUs with other tenants, and their load changes
how fast the same code runs by up to 1.6x within minutes. Timing a fixed
reference slice interleaved with the measured ops, in proportion to their
time, gives the host's speed at the moments the ops ran. Dividing each
op's time by the speed factor of the slices around it reports it as if on
the reference host, where one slice takes REFERENCE_SLICE_S.

The slice uses only the standard library and `cryptography`, never
vmquote, so a change to vmquote cannot move it. It mixes the kinds of work
the workloads do: Python dict and bytes handling, SHA-256, failed AES-GCM
decryptions and an Ed25519 signature.
"""

from __future__ import annotations

import hashlib
import time

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

#: Time of one reference slice on the reference host. Only the scale of
#: the reported times depends on it.
REFERENCE_SLICE_S = 0.0002

#: Reference time spent per unit of measured op time.
REFERENCE_SHARE = 0.08

#: Fewest slices behind any speed factor. Slices vary by about 10% one
#: by one; 100 of them span about 0.25 s of op time.
MIN_SLICES = 100

_KEY = bytes(range(32))
_BLOB = bytes(64)
_SIGNER = Ed25519PrivateKey.from_private_bytes(bytes(32))


def reference_slice() -> None:
    table = {}
    for i in range(100):
        key = i.to_bytes(4, "big") * 8
        table[key] = hashlib.sha256(key).digest()
    for _ in range(6):
        try:
            AESGCM(_KEY).decrypt(_BLOB[:12], _BLOB[12:], None)
        except InvalidTag:
            pass
    _SIGNER.sign(_BLOB)


class HostSpeed:
    """Reference slices timed on the thread's CPU clock."""

    def __init__(self) -> None:
        self.slices = 0
        self.seconds = 0.0
        self._owed = 0.0
        reference_slice()

    def _slice(self) -> float:
        start = time.thread_time()
        reference_slice()
        elapsed = time.thread_time() - start
        self.slices += 1
        self.seconds += elapsed
        return elapsed

    def follow(self, op_seconds: float) -> tuple[int, float]:
        """Run slices for REFERENCE_SHARE of an op that just took op_seconds.

        Returns how many slices ran and their summed time.
        """
        self._owed += REFERENCE_SHARE * op_seconds
        count = 0
        spent = 0.0
        while self._owed > 0:
            elapsed = self._slice()
            self._owed -= elapsed
            count += 1
            spent += elapsed
        return count, spent

    def sample(self, seconds: float) -> None:
        """Run slices for at least `seconds` and MIN_SLICES in all."""
        spent = 0.0
        while spent < seconds or self.slices < MIN_SLICES:
            spent += self._slice()

    @property
    def factor(self) -> float:
        """Slice time here ÷ on the reference host; above 1 is slower."""
        return self.seconds / (self.slices * REFERENCE_SLICE_S)


def normalise(op_seconds: list, slice_counts: list, slice_seconds: list) -> list:
    """Each op's time on the reference host.

    slice_counts[i] and slice_seconds[i] are the slices run right after
    op i. Consecutive ops are grouped until their slices reach MIN_SLICES,
    and each group is divided by its own speed factor; a short last group
    joins the one before it.
    """
    groups = []
    start = count = 0
    spent = 0.0
    for i, (n, s) in enumerate(zip(slice_counts, slice_seconds)):
        count += n
        spent += s
        if count >= MIN_SLICES:
            groups.append([start, i + 1, count, spent])
            start, count, spent = i + 1, 0, 0.0
    if start < len(op_seconds):
        if groups:
            groups[-1][1:] = [len(op_seconds), groups[-1][2] + count, groups[-1][3] + spent]
        else:
            groups.append([start, len(op_seconds), count, spent])
    out = []
    for lo, hi, n, s in groups:
        factor = s / (n * REFERENCE_SLICE_S)
        out.extend(t / factor for t in op_seconds[lo:hi])
    return out
