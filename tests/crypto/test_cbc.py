"""CBC mode tests against NIST SP 800-38A, plus padding properties."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto import cbc_decrypt, cbc_encrypt, pkcs7_pad, pkcs7_unpad
from repro.crypto.cbc import PaddingError
from tests.crypto import schoolbook_aes

# NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt)
NIST_KEY = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
)
NIST_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NIST_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
NIST_CIPHERTEXT = bytes.fromhex(
    "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
    "9cfc4e967edb808d679f777bc6702c7d"
    "39f23369a9d9bacfa530e26304231461"
    "b2eb05e2c39be9fcda6c19078c6a9d1b"
)


class TestNistVectors:
    def test_cbc_aes256_encrypt(self):
        assert cbc_encrypt(NIST_KEY, NIST_IV, NIST_PLAINTEXT, pad=False) == NIST_CIPHERTEXT

    def test_cbc_aes256_decrypt(self):
        assert cbc_decrypt(NIST_KEY, NIST_IV, NIST_CIPHERTEXT, pad=False) == NIST_PLAINTEXT


class TestPkcs7:
    def test_pad_always_adds_bytes(self):
        assert pkcs7_pad(b"") == bytes([16]) * 16
        assert pkcs7_pad(b"a" * 16)[-16:] == bytes([16]) * 16

    def test_pad_length_multiple_of_block(self):
        for n in range(0, 40):
            assert len(pkcs7_pad(b"x" * n)) % 16 == 0

    def test_unpad_round_trip(self):
        for n in range(0, 40):
            data = bytes(range(n % 256))[:n]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_unpad_rejects_bad_length(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"12345")

    def test_unpad_rejects_inconsistent_padding(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"\x00" * 15 + b"\x03")

    def test_unpad_rejects_zero_pad_byte(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"\x00" * 16)


class TestCbcProperties:
    def test_iv_must_be_block_sized(self):
        with pytest.raises(ValueError):
            cbc_encrypt(NIST_KEY, b"short", b"data")

    def test_ciphertext_differs_per_iv(self):
        c1 = cbc_encrypt(NIST_KEY, bytes(16), b"hello world")
        c2 = cbc_encrypt(NIST_KEY, bytes([1]) + bytes(15), b"hello world")
        assert c1 != c2

    def test_tampered_ciphertext_fails_padding_or_differs(self):
        ciphertext = bytearray(cbc_encrypt(NIST_KEY, NIST_IV, b"secret payload"))
        ciphertext[-1] ^= 0xFF
        try:
            result = cbc_decrypt(NIST_KEY, NIST_IV, bytes(ciphertext))
        except PaddingError:
            return
        assert result != b"secret payload"


@given(
    key=st.binary(min_size=32, max_size=32),
    iv=st.binary(min_size=16, max_size=16),
    plaintext=st.binary(min_size=0, max_size=200),
)
def test_cbc_roundtrip_property(key, iv, plaintext):
    assert cbc_decrypt(key, iv, cbc_encrypt(key, iv, plaintext)) == plaintext


@given(
    key=st.binary(min_size=32, max_size=32),
    iv=st.binary(min_size=16, max_size=16),
    plaintext=st.binary(min_size=0, max_size=100),
)
def test_ciphertext_length_is_padded_length(key, iv, plaintext):
    ciphertext = cbc_encrypt(key, iv, plaintext)
    assert len(ciphertext) == (len(plaintext) // 16 + 1) * 16


@given(
    key=st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    iv=st.binary(min_size=16, max_size=16),
    plaintext=st.binary(min_size=0, max_size=100),
)
@example(key=bytes(32), iv=bytes(16), plaintext=b"")
@example(key=NIST_KEY, iv=NIST_IV, plaintext=bytes(range(256)) * 2)
def test_cbc_matches_schoolbook_reference(key, iv, plaintext):
    """The word-level CBC loop equals CBC built block by block on the
    byte-oriented reference cipher, for empty and multi-block inputs."""
    ciphertext = cbc_encrypt(key, iv, plaintext)
    assert ciphertext == schoolbook_aes.cbc_encrypt(key, iv, plaintext)
    assert cbc_decrypt(key, iv, ciphertext) == schoolbook_aes.cbc_decrypt(key, iv, ciphertext)
