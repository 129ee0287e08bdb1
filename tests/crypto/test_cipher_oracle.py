"""The word-wide stream cipher against the per-byte construction it
replaced: identical keystream and ciphertext bytes, so every sealed
envelope, LUKS sector and simulated size is unchanged."""

import hashlib
import hmac
import struct

import pytest

from repro.crypto.cipher import (
    BLOCK_SIZE,
    KEY_SIZE,
    NONCE_SIZE,
    AuthenticatedCipher,
    SectorCipher,
    StreamCipher,
    random_bytes,
    seeded_entropy,
)

LENGTHS = (0, 1, 31, 32, 33, 1000, 4096)


def oracle_keystream(key, nonce, length, start_block=0):
    """One fresh ``sha256(key + nonce + counter)`` per block."""
    blocks = []
    needed = length
    counter = start_block
    prefix = key + nonce
    while needed > 0:
        blocks.append(hashlib.sha256(
            prefix + struct.pack(">Q", counter)).digest())
        needed -= BLOCK_SIZE
        counter += 1
    return b"".join(blocks)[:length]


def oracle_transform(key, data, nonce):
    """The per-byte XOR generator."""
    stream = oracle_keystream(key, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def _material(seed, length):
    with seeded_entropy(seed):
        return (random_bytes(KEY_SIZE), random_bytes(NONCE_SIZE),
                random_bytes(length))


@pytest.mark.parametrize("length", LENGTHS)
def test_keystream_matches_oracle(length):
    key, nonce, _ = _material(length, 0)
    cipher = StreamCipher(key)
    assert cipher.keystream(nonce, length) == \
        oracle_keystream(key, nonce, length)


@pytest.mark.parametrize("start_block", (1, 7, 2 ** 32 + 3))
@pytest.mark.parametrize("length", LENGTHS)
def test_keystream_start_block_matches_oracle(length, start_block):
    key, nonce, _ = _material(start_block, 0)
    cipher = StreamCipher(key)
    assert cipher.keystream(nonce, length, start_block=start_block) == \
        oracle_keystream(key, nonce, length, start_block)


@pytest.mark.parametrize("length", LENGTHS)
def test_transform_matches_oracle(length):
    key, nonce, data = _material(1000 + length, length)
    cipher = StreamCipher(key)
    expected = oracle_transform(key, data, nonce)
    assert cipher.transform(data, nonce) == expected
    assert cipher.decrypt(expected, nonce) == data


@pytest.mark.parametrize("length", LENGTHS)
def test_transform_bytes_like_inputs(length):
    key, nonce, data = _material(2000 + length, length)
    cipher = StreamCipher(key)
    expected = oracle_transform(key, data, nonce)
    for view in (bytearray(data), memoryview(data)):
        out = cipher.transform(view, nonce)
        assert type(out) is bytes
        assert out == expected


def test_leading_and_trailing_zero_bytes_keep_their_length():
    # A wide-int XOR drops no high-order zero bytes: data equal to the
    # keystream encrypts to all zeros of the same length.
    key, nonce, _ = _material(3, 0)
    cipher = StreamCipher(key)
    stream = cipher.keystream(nonce, 100)
    assert cipher.transform(stream, nonce) == bytes(100)
    assert cipher.transform(bytes(100), nonce) == stream


@pytest.mark.parametrize("length", LENGTHS)
def test_authenticated_cipher_matches_oracle(length):
    master, _, plaintext = _material(4000 + length, length)
    aad = b"subject:alice"
    with seeded_entropy(11):
        token = AuthenticatedCipher(master).seal(plaintext, aad)
    with seeded_entropy(11):
        nonce = random_bytes(NONCE_SIZE)
    enc_key = hashlib.sha256(b"enc|" + master).digest()
    mac_key = hashlib.sha256(b"mac|" + master).digest()
    ciphertext = oracle_transform(enc_key, plaintext, nonce)
    tag = hmac.new(mac_key, struct.pack(">I", len(aad)) + aad + nonce
                   + ciphertext, hashlib.sha256).digest()
    assert token == nonce + ciphertext + tag
    assert AuthenticatedCipher(master).open(token, aad) == plaintext


@pytest.mark.parametrize("sector", (0, 1, 4095))
def test_sector_cipher_matches_oracle(sector):
    master, _, data = _material(5000 + sector, 4096)
    sectors = SectorCipher(master)
    sector_key = hashlib.sha256(b"sector|" + master).digest()
    tweak_key = hashlib.sha256(b"tweak|" + master).digest()
    nonce = hmac.new(tweak_key, struct.pack(">Q", sector),
                     hashlib.sha256).digest()[:NONCE_SIZE]
    expected = oracle_transform(sector_key, data, nonce)
    assert sectors.encrypt_sector(sector, data) == expected
    assert sectors.decrypt_sector(sector, expected) == data
