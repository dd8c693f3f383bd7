"""Stream identity of the seeded input generator.

``generate_at`` decodes sandbox memory in bulk from ``Random.randbytes`` and
``mutate_preserving`` from a SHAKE-128 stream; the seeded streams they define
are the per-granule scalar loops in ``_scalar_inputs``.  These tests pin byte
equality against that reference across sandbox sizes and preserve sets, plus
BLAKE2b digests of a 128-page stream, which the 1-page golden traces cannot
cover.  Fresh boosted granules must also keep ``generate_at``'s value
distribution.
"""

import hashlib
import random

import pytest

from _scalar_inputs import scalar_generate_at, scalar_mutate_preserving
from repro.generator import Input, InputGenerator, Sandbox
from repro.generator.inputs import (
    MEMORY_GRANULE,
    memory_taint_label,
    register_taint_label,
)
from repro.isa.registers import INPUT_REGISTERS

#: BLAKE2b-128 of ``generate_at(1..3)`` and of ``mutate_preserving(count=6)``
#: at 128 pages, seed 7, recorded from the per-granule scalar generators.
GENERATE_DIGESTS = {
    1: "5c7612add5d77163b3ee615d5de8944a",
    2: "fdbdf9c4aaad4785eafa7d52fbed458e",
    3: "86f13b4fc9023449a68b4b172ad91752",
}
BOOST_DIGEST = "5d13c549804748a05c2cbeafbd5019fb"

#: Maps byte 0 to 1, so every granule byte of a base input is non-zero: a
#: fresh granule must then clear bytes 2..7 itself.
_NONZERO = bytes([1]) + bytes(range(1, 256))


def _digest(inputs):
    digest = hashlib.blake2b(digest_size=16)
    for test_input in inputs:
        digest.update(test_input.memory)
        for name, value in test_input.registers:
            digest.update(name.encode())
            digest.update(value.to_bytes(8, "little"))
    return digest.hexdigest()


def _base_input(sandbox: Sandbox, seed: int) -> Input:
    rng = random.Random(seed)
    registers = {name: rng.getrandbits(64) for name in INPUT_REGISTERS}
    return Input.create(registers, rng.randbytes(sandbox.size).translate(_NONZERO))


def _preserve_set(kind: str, granules: int):
    def labels(indices):
        return {memory_taint_label(i * MEMORY_GRANULE) for i in indices}

    if kind == "empty":
        return set()
    if kind == "registers":
        return {register_taint_label(name) for name in INPUT_REGISTERS}
    if kind == "first_last":
        return labels((0, granules - 1))
    if kind == "random50":
        return labels(random.Random(granules).sample(range(granules), 50))
    if kind == "half":
        return labels(range(0, granules, 2)) | {register_taint_label("rbx")}
    if kind == "all_but_one":
        return labels(i for i in range(granules) if i != granules // 3)
    raise ValueError(kind)


PRESERVE_KINDS = ("empty", "registers", "first_last", "random50", "half", "all_but_one")


def test_randbytes_emits_getrandbits_words_in_draw_order():
    """The premise of the bulk decode, checked on the running interpreter."""
    bulk, scalar = random.Random(99), random.Random(99)
    words = b"".join(scalar.getrandbits(32).to_bytes(4, "little") for _ in range(48))
    assert bulk.randbytes(len(words)) == words
    assert bulk.random() == scalar.random()


@pytest.mark.parametrize("pages", [1, 2, 128])
def test_generate_at_matches_scalar_stream(pages):
    sandbox = Sandbox(pages=pages)
    generator = InputGenerator(sandbox, seed=5)
    for counter in (1, 2, 77):
        expected = scalar_generate_at(sandbox.size, 5, counter)
        actual = generator.generate_at(counter)
        assert actual.memory == expected.memory
        assert actual.registers == expected.registers
        assert actual.seed == expected.seed


@pytest.mark.parametrize("kind", PRESERVE_KINDS)
@pytest.mark.parametrize("pages", [1, 2, 128])
def test_mutate_preserving_matches_scalar_stream(pages, kind):
    sandbox = Sandbox(pages=pages)
    generator = InputGenerator(sandbox, seed=5)
    base = _base_input(sandbox, seed=pages)
    preserve = _preserve_set(kind, sandbox.size // MEMORY_GRANULE)
    for salt in (0, 3, 1 << 12):
        expected = scalar_mutate_preserving(
            sandbox.size, base, preserve, count=6, salt=salt
        )
        actual = generator.mutate_preserving(base, preserve, count=6, salt=salt)
        assert [v.memory for v in actual] == [v.memory for v in expected]
        assert [v.registers for v in actual] == [v.registers for v in expected]
        assert [v.seed for v in actual] == [v.seed for v in expected]


def test_large_sandbox_stream_digests():
    generator = InputGenerator(Sandbox(pages=128), seed=7)
    inputs = {counter: generator.generate_at(counter) for counter in (1, 2, 3)}
    assert {c: _digest([i]) for c, i in inputs.items()} == GENERATE_DIGESTS
    preserve = {register_taint_label("rax"), register_taint_label("rsi")} | {
        memory_taint_label(offset) for offset in range(0, 128 * 4096, 4096 + 8)
    }
    variants = generator.mutate_preserving(inputs[1], preserve, count=6, salt=2)
    assert _digest(variants) == BOOST_DIGEST


def test_empty_boost_returns_before_hashing_the_base(monkeypatch):
    generator = InputGenerator(Sandbox(pages=128), seed=7)
    base = generator.generate_at(1)

    def refuse(self):
        raise AssertionError("count=0 must not fingerprint the base input")

    monkeypatch.setattr(Input, "fingerprint", refuse)
    assert generator.mutate_preserving(base, {register_taint_label("rax")}, count=0) == []


def test_fresh_granules_keep_the_generate_at_distribution():
    """One 128-page variant: 16-bit granules, a quarter of them 4-bit."""
    sandbox = Sandbox(pages=128)
    base = _base_input(sandbox, seed=3)
    (variant,) = InputGenerator(sandbox).mutate_preserving(base, set(), count=1)
    granules = sandbox.size // MEMORY_GRANULE
    for byte in range(2, MEMORY_GRANULE):
        assert variant.memory[byte::MEMORY_GRANULE] == bytes(granules)
    small = sum(
        1
        for offset in range(0, sandbox.size, MEMORY_GRANULE)
        if variant.memory_word(offset) <= 0xF
    )
    # A 16-bit draw is <= 0xF with probability 2**-12, so the share is ~0.2502.
    assert abs(small / granules - 0.25) <= 0.02

