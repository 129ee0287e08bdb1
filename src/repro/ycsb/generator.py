"""Record and key generation (YCSB's CoreWorkload key/value builders)."""

from __future__ import annotations

import random
import string
from typing import Dict, List, Optional

from ..common.hashing import fnv1a_64

_PRINTABLE = (string.ascii_letters + string.digits).encode("ascii")

# ``rng.choice(_PRINTABLE)`` draws one 32-bit Mersenne word per attempt,
# keeps its top 6 bits and redraws on 62 or 63.  The top byte of a word
# determines that choice: this table maps it to the symbol, and the
# bytes whose top 6 bits are rejected are deleted instead.
_TOP_BYTE_TO_SYMBOL = bytes(
    _PRINTABLE[byte >> 2] if byte >> 2 < len(_PRINTABLE) else 0
    for byte in range(256))
_REJECTED_TOP_BYTES = bytes(range(len(_PRINTABLE) << 2, 256))


def build_key_name(keynum: int, ordered: bool = False) -> str:
    """YCSB's key naming: "user" + fnv64(keynum) (hashed insert order)."""
    if ordered:
        return f"user{keynum:019d}"
    return f"user{fnv1a_64(keynum)}"


class FieldGenerator:
    """Deterministic field payloads of fixed length."""

    def __init__(self, field_count: int = 10, field_length: int = 100,
                 seed: int = 0) -> None:
        self.field_count = field_count
        self.field_length = field_length
        self._rng = random.Random(seed)
        self.field_names = [f"field{i}" for i in range(field_count)]

    def _payload(self) -> bytes:
        """``field_length`` symbols drawn as by ``rng.choice(_PRINTABLE)``
        per byte -- the same bytes, leaving the same generator state --
        but in bulk: ``getrandbits(32 * n)`` is ``n`` words, least
        significant first, so every fourth little-endian byte is one
        attempt's top byte.  Each word is one attempt, so drawing exactly
        as many words as bytes are still missing never consumes a word
        the per-byte draw would not."""
        payload = b""
        need = self.field_length
        while need:
            words = self._rng.getrandbits(32 * need).to_bytes(4 * need,
                                                             "little")
            kept = words[3::4].translate(_TOP_BYTE_TO_SYMBOL,
                                         _REJECTED_TOP_BYTES)
            payload += kept
            need -= len(kept)
        return payload

    def build_values(self) -> Dict[str, bytes]:
        """All fields (insert path)."""
        return {name: self._payload() for name in self.field_names}

    def build_update(self) -> Dict[str, bytes]:
        """One random field (update path, YCSB writeallfields=false)."""
        name = self.field_names[self._rng.randrange(self.field_count)]
        return {name: self._payload()}

    def random_field(self) -> str:
        return self.field_names[self._rng.randrange(self.field_count)]

    def record_size(self) -> int:
        return self.field_count * self.field_length


def flatten_fields(values: Dict[str, bytes]) -> List[bytes]:
    """field/value dict -> the flat argument list HSET expects."""
    flat: List[bytes] = []
    for name, payload in values.items():
        flat.append(name.encode("ascii"))
        flat.append(payload)
    return flat
