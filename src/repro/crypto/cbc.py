"""CBC mode with PKCS#7 padding (NIST SP 800-38A / RFC 5652).

The loop chains on 32-bit words: the whole buffer is unpacked once,
each block goes through :meth:`AES.encrypt_words`/:meth:`AES.decrypt_words`
and the result is packed once.  :func:`cbc_encrypt_with` and
:func:`cbc_decrypt_with` take a built :class:`AES`, so a caller that
encrypts many buffers under one key expands the key once;
:func:`cbc_encrypt`/:func:`cbc_decrypt` build the cipher from the key.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import AES, BLOCK_SIZE


class PaddingError(ValueError):
    """Raised when PKCS#7 unpadding encounters malformed padding."""


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Append PKCS#7 padding (always adds 1..block_size bytes)."""
    if not 1 <= block_size <= 255:
        raise ValueError("block_size must be in 1..255")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size:
        raise PaddingError("data length is not a multiple of the block size")
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise PaddingError(f"invalid padding length {pad_len}")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise PaddingError("padding bytes are inconsistent")
    return data[:-pad_len]


def _words(data: bytes) -> tuple[int, ...]:
    return struct.unpack(f">{len(data) // 4}I", data)


def _pack(words: list[int]) -> bytes:
    return struct.pack(f">{len(words)}I", *words)


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes, pad: bool = True) -> bytes:
    """AES-CBC encrypt ``plaintext``; pads with PKCS#7 unless ``pad=False``
    (in which case the input must be block-aligned, as in the NIST
    vectors)."""
    return cbc_encrypt_with(AES(key), iv, plaintext, pad)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes, pad: bool = True) -> bytes:
    """AES-CBC decrypt ``ciphertext``; strips PKCS#7 unless ``pad=False``."""
    return cbc_decrypt_with(AES(key), iv, ciphertext, pad)


def cbc_encrypt_with(cipher: AES, iv: bytes, plaintext: bytes, pad: bool = True) -> bytes:
    """:func:`cbc_encrypt` under an already-built ``cipher``."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("iv must be 16 bytes")
    data = pkcs7_pad(plaintext) if pad else plaintext
    if len(data) % BLOCK_SIZE:
        raise ValueError("unpadded input must be a multiple of 16 bytes")
    words = _words(data)
    encrypt = cipher.encrypt_words
    c0, c1, c2, c3 = _words(iv)
    out: list[int] = []
    for i in range(0, len(words), 4):
        c0, c1, c2, c3 = encrypt(
            words[i] ^ c0, words[i + 1] ^ c1, words[i + 2] ^ c2, words[i + 3] ^ c3
        )
        out += (c0, c1, c2, c3)
    return _pack(out)


def cbc_decrypt_with(cipher: AES, iv: bytes, ciphertext: bytes, pad: bool = True) -> bytes:
    """:func:`cbc_decrypt` under an already-built ``cipher``."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("iv must be 16 bytes")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE:
        raise ValueError("ciphertext must be a non-empty multiple of 16 bytes")
    words = _words(ciphertext)
    decrypt = cipher.decrypt_words
    v0, v1, v2, v3 = _words(iv)
    out: list[int] = []
    for i in range(0, len(words), 4):
        c0, c1, c2, c3 = words[i : i + 4]
        p0, p1, p2, p3 = decrypt(c0, c1, c2, c3)
        out += (p0 ^ v0, p1 ^ v1, p2 ^ v2, p3 ^ v3)
        v0, v1, v2, v3 = c0, c1, c2, c3
    data = _pack(out)
    return pkcs7_unpad(data) if pad else data
