"""Test-only scalar reference for the seeded input streams.

These are the per-granule loops ``InputGenerator.generate_at`` and
``InputGenerator.mutate_preserving`` used before memory was decoded in bulk
from ``Random.randbytes``.  They draw one ``random()`` and one
``getrandbits`` per sandbox granule, so they are slow for large sandboxes,
but they *define* the streams: the generator must stay byte-identical to
them (``tests/test_input_stream.py``).
"""

from __future__ import annotations

import random
from typing import List, Set

from repro.generator.inputs import MEMORY_GRANULE, Input, TaintLabel, register_taint_label
from repro.isa.registers import INPUT_REGISTERS, MASK64

_GRANULE_ZERO_TAIL = bytes(MEMORY_GRANULE - 2)


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
    fingerprint = base.fingerprint() & MASK64
    bits = 16
    variants: List[Input] = []
    for index in range(count):
        rng = random.Random(fingerprint ^ (salt << 8) ^ (index + 1))
        registers = base.register_dict()
        for name in INPUT_REGISTERS:
            if register_taint_label(name) not in preserve:
                registers[name] = _random_value(rng, register_value_bits)
        uniform = rng.random
        getrandbits = rng.getrandbits
        memory = bytearray(base.memory)
        zero_tail = _GRANULE_ZERO_TAIL
        for offset in range(0, sandbox_size, MEMORY_GRANULE):
            if offset not in preserved_offsets:
                if uniform() < 0.25:
                    word = getrandbits(4)
                else:
                    word = getrandbits(bits)
                memory[offset] = word & 0xFF
                memory[offset + 1] = word >> 8
                memory[offset + 2 : offset + MEMORY_GRANULE] = zero_tail
        variants.append(Input.create(registers, bytes(memory), seed=base.seed))
    return variants
