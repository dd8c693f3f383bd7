"""Test inputs and the seeded input generator.

An input initialises the architectural state a test program starts from: the
six input registers and the contents of the memory sandbox.  Inputs are
generated from a seeded pseudo-random number generator so campaigns are
reproducible, and can be *mutated while preserving the contract trace*:
given the set of input locations (registers / 8-byte sandbox granules) that
the leakage model's taint tracker marked as contract-relevant, a mutation
keeps those locations fixed and randomises everything else.  This "input
boosting" is what makes contract-equivalence classes of size > 1 common
enough for relational testing to find violations.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.generator.sandbox import Sandbox
from repro.isa.registers import INPUT_REGISTERS, MASK64

#: A taint label identifies one input location: ``("reg", "rax")`` for a
#: register or ``("mem", offset)`` for the 8-byte sandbox granule starting at
#: ``offset`` (offset is always granule-aligned).
TaintLabel = Tuple[str, object]

#: Granularity at which sandbox memory is tracked and mutated.
MEMORY_GRANULE = 8

#: Byte translation tables for :func:`_decode_granules`.
_SMALL_MASK = bytes(0xFF if byte < 0x40 else 0 for byte in range(256))
_TOP_NIBBLE = bytes(byte >> 4 for byte in range(256))

#: Domain tag of the boost stream (see :meth:`InputGenerator.mutate_preserving`).
_BOOST_DOMAIN = b"amulet-boost-v1\0"
#: Boost-stream bytes per unpreserved register (selector, then 8 value
#: bytes) and per unpreserved granule (selector, low byte, high byte).
_REGISTER_DRAW = 9
_GRANULE_DRAW = 3


def memory_taint_label(offset: int) -> TaintLabel:
    """Return the taint label of the granule containing sandbox ``offset``."""
    return ("mem", (offset // MEMORY_GRANULE) * MEMORY_GRANULE)


def register_taint_label(name: str) -> TaintLabel:
    return ("reg", name)


def _decode_granules(select: bytes, low: bytes, high: bytes) -> bytearray:
    """Granule ``i`` of the image decoded from three equal-length byte columns.

    ``select[i] < 0x40`` (probability 1/4) makes the granule the 4-bit value
    ``high[i] >> 4``; otherwise it is the 16-bit value ``high[i]:low[i]``.
    Bytes 2..7 are zero.  Two translate tables and whole-column AND/OR on
    big integers decode every granule at once.
    """
    count = len(select)
    small = int.from_bytes(select.translate(_SMALL_MASK), "little")
    # ``x ^ (x & small)`` is ``x & ~small`` without a negative big integer.
    low_word = int.from_bytes(low, "little")
    high_word = int.from_bytes(high, "little")
    low_byte = (int.from_bytes(high.translate(_TOP_NIBBLE), "little") & small) | (
        low_word ^ (low_word & small)
    )
    high_byte = high_word ^ (high_word & small)
    granules = bytearray(count * MEMORY_GRANULE)
    granules[0::MEMORY_GRANULE] = low_byte.to_bytes(count, "little")
    granules[1::MEMORY_GRANULE] = high_byte.to_bytes(count, "little")
    return granules


def _fresh_granules(rng: random.Random, count: int) -> bytearray:
    """``count`` granules, each an 8-byte word of ``_random_value(rng, 16)``.

    Byte-identical to ``count`` per-granule draws, ``rng`` state included.
    A draw is ``random()`` (words ``a, b``) then ``getrandbits`` (word
    ``c``), and ``randbytes`` emits those 32-bit words little-endian in draw
    order.  ``random() < 0.25`` iff ``a < 2**30`` (byte 3 of ``a`` < 0x40);
    ``getrandbits(k)`` is ``c >> (32 - k)``: 16 bits are ``c``'s bytes 2..3,
    4 bits are byte 3's top nibble.  So byte columns 3, 10 and 11 of the
    12-byte draws are :func:`_decode_granules`' selector, low and high.
    """
    raw = rng.randbytes(12 * count)
    return _decode_granules(raw[3::12], raw[10::12], raw[11::12])


def _boost_stream(fingerprint: int, salt: int, index: int, size: int) -> bytes:
    """``size`` bytes of variant ``index``'s SHAKE-128 boost stream."""
    key = _BOOST_DOMAIN + b"".join(
        (value & MASK64).to_bytes(8, "little") for value in (fingerprint, salt, index)
    )
    return hashlib.shake_128(key).digest(size)


@dataclass(frozen=True)
class Input:
    """One test input: register values plus sandbox memory contents."""

    registers: Tuple[Tuple[str, int], ...]
    memory: bytes
    seed: int = 0

    @staticmethod
    def create(registers: Dict[str, int], memory: bytes, seed: int = 0) -> "Input":
        ordered = tuple(sorted((name, value & MASK64) for name, value in registers.items()))
        return Input(registers=ordered, memory=bytes(memory), seed=seed)

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            # The sandbox image dominates an input's size; advertising it as
            # a PickleBuffer lets protocol-5 picklers with a buffer_callback
            # (the simulation-shard transport) carry it out of band instead
            # of copying it through the opcode stream.  Without a callback
            # the buffer is serialized in band — same bytes restored either
            # way, and protocol <= 4 (the default everywhere else) takes the
            # ordinary dataclass path.
            return (
                _input_from_wire,
                (self.registers, pickle.PickleBuffer(self.memory), self.seed),
            )
        return super().__reduce_ex__(protocol)

    def register_dict(self) -> Dict[str, int]:
        return dict(self.registers)

    def memory_word(self, offset: int, size: int = MEMORY_GRANULE) -> int:
        return int.from_bytes(self.memory[offset : offset + size], "little")

    def fingerprint(self) -> int:
        """A stable 64-bit content hash of the input.

        Computed with BLAKE2b, **not** Python's ``hash()``: the built-in
        string/bytes hash is salted per interpreter process, and this
        fingerprint seeds the contract-preserving mutation RNG — a salted
        value would give every fresh interpreter a different boosted-input
        stream for the same campaign seed (run-to-run nondeterminism that
        also breaks cross-process reproducibility of the persistent fuzzing
        corpus).
        """
        digest = hashlib.blake2b(self.memory, digest_size=8)
        for name, value in self.registers:
            digest.update(name.encode())
            digest.update(value.to_bytes(8, "little"))
        return int.from_bytes(digest.digest(), "little")

    def __len__(self) -> int:
        return len(self.memory)


def _input_from_wire(registers, memory, seed) -> Input:
    """Rebuild an :class:`Input` from its protocol-5 wire form.

    ``memory`` arrives as whatever buffer object the unpickler hands back (a
    ``PickleBuffer`` in band, the raw out-of-band buffer otherwise); both
    support the buffer protocol, so one ``bytes()`` restores the invariant.
    """
    return Input(registers=registers, memory=bytes(memory), seed=seed)


class InputGenerator:
    """Generates and mutates test inputs from a seeded PRNG."""

    def __init__(
        self,
        sandbox: Sandbox,
        seed: int = 0,
        register_value_bits: int = 16,
    ) -> None:
        """Create a generator.

        ``register_value_bits`` bounds the magnitude of generated register
        values; memory granules always hold 16-bit values.  Small-ish values
        make flag conditions (and thus branch outcomes) vary between inputs,
        which is what drives coverage of both branch directions during
        fuzzing; address randomness is unaffected because generated programs
        mask addresses anyway.
        """
        self.sandbox = sandbox
        self.seed = seed
        self.register_value_bits = register_value_bits
        self._rng = random.Random(seed)
        self._counter = 0

    # -- generation -----------------------------------------------------------
    def _random_value(self, rng: random.Random, bits: int) -> int:
        # Mix small values (likely to collide / flip flags) with wide values.
        if rng.random() < 0.25:
            return rng.getrandbits(4)
        return rng.getrandbits(bits)

    def reserve_counter(self) -> int:
        """Advance the stream without generating: claim the next counter.

        ``generate_at(reserve_counter())`` equals ``generate_one()`` — the
        split lets a coordinator hand the (expensive, for large sandboxes)
        materialization of an input to a worker process while keeping the
        stream position, which is instance state, in one place.
        """
        self._counter += 1
        return self._counter

    def generate_one(self) -> Input:
        """Generate the next input in the seeded stream."""
        return self.generate_at(self.reserve_counter())

    def generate_at(self, counter: int) -> Input:
        """Materialize the stream's input for ``counter`` (a pure function).

        Every input is seeded by ``(seed, counter)`` alone, so any generator
        constructed with the same seed and sandbox produces bit-identical
        inputs for the same counter — in any process, in any order.  The
        stream is six register draws, then one draw per granule.
        """
        rng = random.Random((self.seed << 20) ^ counter)
        registers = {
            name: self._random_value(rng, self.register_value_bits)
            for name in INPUT_REGISTERS
        }
        memory = _fresh_granules(rng, self.sandbox.size // MEMORY_GRANULE)
        return Input.create(registers, memory, seed=counter)

    def generate(self, count: int) -> List[Input]:
        """Generate ``count`` fresh inputs."""
        return [self.generate_one() for _ in range(count)]

    # -- contract-preserving mutation (input boosting) -------------------------
    def mutate_preserving(
        self,
        base: Input,
        preserve: Set[TaintLabel],
        count: int = 1,
        salt: int = 0,
    ) -> List[Input]:
        """Derive ``count`` inputs from ``base`` that keep ``preserve`` fixed.

        Registers and memory granules *not* named in ``preserve`` are
        re-randomised; everything in ``preserve`` is copied verbatim from
        ``base``, so any observation that depends only on preserved locations
        (in particular the contract trace that produced the taint set) is
        unchanged.

        Variant ``i`` reads a SHAKE-128 stream keyed by a domain tag, the
        base's :meth:`Input.fingerprint`, ``salt`` and ``i``: 9 bytes per
        unpreserved register in ``INPUT_REGISTERS`` order (a selector byte,
        then a little-endian value), then 3 bytes per unpreserved granule in
        offset order, decoded by :func:`_decode_granules` into a compressed
        image that the base's preserved granule runs are spliced into.  A
        selector below 0x40 (probability 1/4) keeps 4 value bits, otherwise
        ``register_value_bits`` (registers) or 16 (granules) — the
        distribution :meth:`generate_at` draws from, at a fraction of the
        cost of ``random.Random`` for a large sandbox.
        """
        if count <= 0:
            return []
        size = self.sandbox.size
        preserved = sorted({which for kind, which in preserve if kind == "mem"})
        runs: List[List[int]] = []  # consecutive preserved bytes, [start, stop)
        for offset in preserved:
            if runs and runs[-1][1] == offset:
                runs[-1][1] += MEMORY_GRANULE
            else:
                runs.append([offset, offset + MEMORY_GRANULE])
        fresh_registers = [
            name for name in INPUT_REGISTERS if register_taint_label(name) not in preserve
        ]
        register_bytes = _REGISTER_DRAW * len(fresh_registers)
        fresh_count = size // MEMORY_GRANULE - len(preserved)
        value_mask = (1 << self.register_value_bits) - 1
        base_memory = memoryview(base.memory)
        fingerprint = base.fingerprint()
        variants: List[Input] = []
        for index in range(count):
            stream = _boost_stream(
                fingerprint, salt, index, register_bytes + _GRANULE_DRAW * fresh_count
            )
            registers = base.register_dict()
            for slot, name in enumerate(fresh_registers):
                draw = stream[_REGISTER_DRAW * slot : _REGISTER_DRAW * (slot + 1)]
                value = int.from_bytes(draw[1:], "little")
                registers[name] = value & (0xF if draw[0] < 0x40 else value_mask)
            fresh = memoryview(
                _decode_granules(
                    stream[register_bytes::_GRANULE_DRAW],
                    stream[register_bytes + 1 :: _GRANULE_DRAW],
                    stream[register_bytes + 2 :: _GRANULE_DRAW],
                )
            )
            # A fresh byte sits at its sandbox offset minus the run bytes before it.
            pieces, cursor, copied = [], 0, 0
            for start, stop in runs:
                pieces.append(fresh[cursor - copied : start - copied])
                pieces.append(base_memory[start:stop])
                copied += stop - start
                cursor = stop
            pieces.append(fresh[cursor - copied :])
            memory = b"".join(pieces)
            variants.append(Input.create(registers, memory, seed=base.seed))
        return variants

    @staticmethod
    def preserved_equal(a: Input, b: Input, preserve: Iterable[TaintLabel]) -> bool:
        """Check that two inputs agree on every preserved location."""
        regs_a, regs_b = a.register_dict(), b.register_dict()
        for label in preserve:
            kind, which = label
            if kind == "reg":
                if regs_a.get(which) != regs_b.get(which):
                    return False
            else:
                offset = int(which)
                if (
                    a.memory[offset : offset + MEMORY_GRANULE]
                    != b.memory[offset : offset + MEMORY_GRANULE]
                ):
                    return False
        return True
