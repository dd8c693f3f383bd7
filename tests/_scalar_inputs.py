"""Test-only scalar reference for the seeded input streams.

``scalar_generate_at`` is the per-granule loop ``InputGenerator.generate_at``
used before memory was decoded in bulk from ``Random.randbytes``: one
``random()`` and one ``getrandbits`` per sandbox granule.
``scalar_mutate_preserving`` reads the SHAKE-128 boost stream one register
and one granule at a time.  Both are slow for large sandboxes, but they
*define* the streams: the generator must stay byte-identical to them
(``tests/test_input_stream.py``).
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Set

from repro.generator.inputs import MEMORY_GRANULE, Input, TaintLabel, register_taint_label
from repro.isa.registers import INPUT_REGISTERS, MASK64

#: The boost stream's key prefix, spelled out rather than imported so a
#: change to the generator's tag shows up as a stream mismatch.
BOOST_DOMAIN = b"amulet-boost-v1\0"


def _random_value(rng: random.Random, bits: int) -> int:
    if rng.random() < 0.25:
        return rng.getrandbits(4)
    return rng.getrandbits(bits)


def scalar_generate_at(
    sandbox_size: int, seed: int, counter: int, register_value_bits: int = 16
) -> Input:
    rng = random.Random((seed << 20) ^ counter)
    registers = {
        name: _random_value(rng, register_value_bits) for name in INPUT_REGISTERS
    }
    uniform = rng.random
    getrandbits = rng.getrandbits
    bits = 16
    memory = bytearray(sandbox_size)
    for offset in range(0, sandbox_size, MEMORY_GRANULE):
        if uniform() < 0.25:
            memory[offset] = getrandbits(4)
        else:
            word = getrandbits(bits)
            memory[offset] = word & 0xFF
            memory[offset + 1] = word >> 8
    return Input.create(registers, bytes(memory), seed=counter)


def scalar_mutate_preserving(
    sandbox_size: int,
    base: Input,
    preserve: Set[TaintLabel],
    count: int = 1,
    salt: int = 0,
    register_value_bits: int = 16,
) -> List[Input]:
    preserved_offsets = {which for kind, which in preserve if kind == "mem"}
    fingerprint = base.fingerprint()
    variants: List[Input] = []
    for index in range(count):
        key = BOOST_DOMAIN + b"".join(
            (value & MASK64).to_bytes(8, "little")
            for value in (fingerprint, salt, index)
        )
        # Far more than any variant reads: 9 bytes per register, 3 per granule.
        stream = iter(hashlib.shake_128(key).digest(9 * 6 + 3 * sandbox_size))
        registers = base.register_dict()
        for name in INPUT_REGISTERS:
            if register_taint_label(name) not in preserve:
                selector = next(stream)
                value = int.from_bytes(bytes(next(stream) for _ in range(8)), "little")
                if selector < 0x40:
                    registers[name] = value & 0xF
                else:
                    registers[name] = value & ((1 << register_value_bits) - 1)
        memory = bytearray(base.memory)
        for offset in range(0, sandbox_size, MEMORY_GRANULE):
            if offset not in preserved_offsets:
                selector, low, high = next(stream), next(stream), next(stream)
                if selector < 0x40:
                    word = high >> 4
                else:
                    word = high << 8 | low
                memory[offset : offset + MEMORY_GRANULE] = word.to_bytes(
                    MEMORY_GRANULE, "little"
                )
        variants.append(Input.create(registers, bytes(memory), seed=base.seed))
    return variants
