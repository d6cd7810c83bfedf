"""Cipher engines for the simulated crypto pipeline.

The pipeline charges in-enclave cipher work through
:class:`CryptoCostModel` (cycles a hardware-accelerated AES-256-CBC costs
on the paper's CPU).  Two data transforms implement the actual bytes:

- :class:`RealAesCbcEngine` — the genuine AES-256-CBC from
  :mod:`repro.crypto.cbc`.  Used in examples, correctness tests and the
  ``aes-file`` benchmark workload.
- :class:`FastXorEngine` — a length- and padding-faithful stand-in
  (keystream XOR + PKCS#7) that is invertible and a few hundred times
  cheaper per chunk.  fig. 10 and the serve crypto app use it.  The
  *simulated* cycle cost is identical to the real engine's; only the
  host-Python cost differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.cbc import cbc_decrypt_with, cbc_encrypt_with, pkcs7_pad, pkcs7_unpad


@dataclass(frozen=True)
class CryptoCostModel:
    """In-enclave cycle cost of AES-256-CBC on the paper's CPU.

    With AES-NI inside an enclave, bulk AES-CBC costs a few cycles per
    byte (CBC encryption is serial, so it is slower than GCM); the setup
    cost covers the EVP context and key schedule per chunk.
    """

    cycles_per_byte: float = 2.6
    setup_cycles: float = 900.0

    def encrypt_cycles(self, nbytes: int) -> float:
        """Enclave cycles to encrypt an ``nbytes`` chunk."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.setup_cycles + nbytes * self.cycles_per_byte

    def decrypt_cycles(self, nbytes: int) -> float:
        """Enclave cycles to decrypt an ``nbytes`` chunk."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.setup_cycles + nbytes * self.cycles_per_byte


class RealAesCbcEngine:
    """The genuine AES-256-CBC transform; the key is expanded once per engine."""

    def __init__(self, key: bytes, iv: bytes) -> None:
        if len(key) != 32:
            raise ValueError("AES-256 key must be 32 bytes")
        if len(iv) != BLOCK_SIZE:
            raise ValueError("iv must be 16 bytes")
        self.key = key
        self.iv = iv
        self._cipher = AES(key)

    def encrypt(self, plaintext: bytes) -> bytes:
        """AES-256-CBC encrypt with PKCS#7 padding."""
        return cbc_encrypt_with(self._cipher, self.iv, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """AES-256-CBC decrypt, stripping PKCS#7 padding."""
        return cbc_decrypt_with(self._cipher, self.iv, ciphertext)


class FastXorEngine:
    """Length/padding-faithful stand-in cipher for large benchmark runs.

    Applies PKCS#7 padding and XORs with a key-derived 256-byte repeating
    keystream.  Ciphertext length matches the real engine exactly
    (``len(pkcs7_pad(plaintext))``), decryption round-trips, and malformed
    "ciphertext" fails unpadding — enough fidelity for the I/O pipeline.

    It stays because even the table-driven real cipher is too slow for
    the serve and fig. 10 paths.  Measured on one x86-64 core under
    CPython 3.11, per chunk encrypted or decrypted:

    - a 512-byte serve chunk costs ~1 ms in :class:`RealAesCbcEngine`
      and 3-5 µs here;
    - a 4 KiB fig. 10 chunk costs 5-6 ms there and 15-20 µs here.

    The ``serve-zc-mixed`` benchmark workload moves 330 such 512-byte
    chunks, so the real cipher would add about 0.3 s to a run of about
    1.2 s.
    """

    def __init__(self, key: bytes, iv: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        # Fold the key material into a 64-bit seed, then expand it with an
        # LCG; deterministic per (key, iv) and sensitive to every byte.
        raw = key + iv
        state = len(raw)
        for offset in range(0, len(raw), 8):
            state ^= int.from_bytes(raw[offset : offset + 8], "big")
        mask = 2**64 - 1
        stream = bytearray()
        while len(stream) < 256:
            state = (state * 6364136223846793005 + 1442695040888963407) & mask
            stream.extend(state.to_bytes(8, "big"))
        self._pad = bytes(stream[:256])

    def _xor(self, data: bytes) -> bytes:
        size = len(data)
        pad = (self._pad * (size // 256 + 1))[:size]
        return (int.from_bytes(data, "big") ^ int.from_bytes(pad, "big")).to_bytes(size, "big")

    def encrypt(self, plaintext: bytes) -> bytes:
        """Pad then XOR-transform (length-faithful stand-in)."""
        return self._xor(pkcs7_pad(plaintext, BLOCK_SIZE))

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Inverse XOR-transform then unpad."""
        return pkcs7_unpad(self._xor(ciphertext), BLOCK_SIZE)
