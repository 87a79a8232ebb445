"""MRENCLAVE is the identity of the code an enclave runs.

Copies of a trusted library are built with ``exec`` from edited source.
Edits that change no code — a comment at any line, a docstring's
wording — leave the measurement and the loaded page count alone; edits
that change what runs — a statement, a default value, class data, an
``@ecall`` added or removed, an override, a base-class method under an
unchanged subclass, a method replaced on the live class — each move
MRENCLAVE. Hypothesis picks the line and the wording
(derandomized in tier-1 by ``tests/conftest.py``).
"""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import ScbrEnclaveLibrary
from repro.crypto.rsa import _generate_keypair_unchecked
from repro.sgx.enclave import EnclaveBuilder
from repro.sgx.platform import SgxPlatform
from repro.sgx.sdk import EnclaveLibrary, ecall, load_enclave

SRC = Path(__file__).resolve().parents[2] / "src"

LEDGER = '''\
class Ledger(EnclaveLibrary):
    """A trusted ledger: deposits, a balance, an audit digest."""

    UNIT = 1

    def __init__(self, runtime):
        super().__init__(runtime)
        self.entries = []

    @ecall
    def deposit(self, amount):
        """Record one deposit below the limit."""
        if amount >= 100:
            raise ValueError("deposit over the limit")
        self.entries.append(amount)
        return self.count

    @ecall
    def balance(self):
        return sum(entry for entry in self.entries) * self.UNIT

    @ecall
    def flagged(self):
        return [entry for entry in self.entries
                if self.kind(entry) in {"large", "odd", "round", "tiny"}]

    @ecall
    def audit(self):
        def digest(values):
            """Fold the values into one residue."""
            return sum(values) % 251
        return digest(self.entries)

    @staticmethod
    def kind(amount):
        """Classify one amount."""
        return "large" if amount > 50 else ("odd" if amount % 2 else "")

    @classmethod
    def limit(cls):
        return 100

    @property
    def count(self):
        """Entries recorded so far."""
        return len(self.entries)

    def trim(self, keep=10, *, newest=True):
        """Keep the newest (or the oldest) entries only."""
        self.entries = (self.entries[-keep:] if newest
                        else self.entries[:keep])
'''

AUDITED = '''\
class Audited(Ledger):

    @ecall
    def last(self):
        return self.entries[-1]
'''

#: Docstrings of LEDGER, as they appear in its text.
DOCSTRINGS = [
    "A trusted ledger: deposits, a balance, an audit digest.",
    "Record one deposit below the limit.",
    "Fold the values into one residue.",
    "Classify one amount.",
    "Entries recorded so far.",
    "Keep the newest (or the oldest) entries only.",
]

#: One statement edit per kind of code the measurement reaches: a
#: method's constants, bytecode, names, and both of the last two; a
#: generator expression, a comprehension's frozenset and a nested def;
#: a staticmethod, a classmethod (and its name) and a property; a
#: default value, a keyword-only one and class data; an ``@ecall``
#: added to a method and one taken away, which change the entry points.
STATEMENT_EDITS = [
    ('"deposit over the limit"', '"deposit over limit"'),
    ("amount >= 100", "amount > 100"),
    ("raise ValueError", "raise OverflowError"),
    ("self.entries.append(amount)", "self.entries.insert(0, amount)"),
    ("sum(entry for entry", "sum(-entry for entry"),
    ('"round", "tiny"}', '"round", "huge"}'),
    ("sum(values) % 251", "sum(values) % 241"),
    ("amount > 50", "amount > 60"),
    ("return 100", "return 99"),
    ("def limit(cls)", "def ceiling(cls)"),
    ("return len(self.entries)", "return len(self.entries[1:])"),
    ("keep=10", "keep=20"),
    ("newest=True", "newest=False"),
    ("UNIT = 1", "UNIT = 2"),
    ("    def trim", "    @ecall\n    def trim"),
    ("    @ecall\n    def balance", "    def balance"),
]


@pytest.fixture(scope="module")
def vendor_key():
    return _generate_keypair_unchecked(768, 65537)


@pytest.fixture(scope="module")
def platform():
    return SgxPlatform(attestation_key_bits=768)


def build(*sources, name="Ledger"):
    """Define the classes in ``sources`` afresh; return ``name``."""
    namespace = {"EnclaveLibrary": EnclaveLibrary, "ecall": ecall}
    for source in sources:
        exec(compile(source, "<library>", "exec"), namespace)
    return namespace[name]


def measure(platform, library):
    return EnclaveBuilder(platform, library).measure()


def loaded_pages(platform, library, vendor_key):
    enclave = load_enclave(platform, library, vendor_key)
    return enclave.arena.allocated_bytes // 4096


@given(line=st.integers(0, LEDGER.count("\n")))
@settings(max_examples=40, deadline=None)
def test_a_comment_at_any_line_changes_nothing(platform, vendor_key, line):
    lines = LEDGER.splitlines(keepends=True)
    lines.insert(line, "    # a note on a line of its own\n")
    edited = build("".join(lines))
    original = build(LEDGER)
    assert measure(platform, edited) == measure(platform, original)
    assert loaded_pages(platform, edited, vendor_key) \
        == loaded_pages(platform, original, vendor_key) == 1


@given(index=st.integers(0, len(DOCSTRINGS) - 1),
       words=st.lists(st.sampled_from(["new", "wording", "of", "it"]),
                      min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_a_reworded_docstring_changes_nothing(platform, index, words):
    edited = LEDGER.replace(DOCSTRINGS[index], " ".join(words))
    assert edited != LEDGER
    assert measure(platform, build(edited)) \
        == measure(platform, build(LEDGER))


@pytest.mark.parametrize("old, new", STATEMENT_EDITS)
def test_a_changed_statement_moves_mrenclave(platform, old, new):
    assert LEDGER.count(old) == 1
    edited = build(LEDGER.replace(old, new))
    assert measure(platform, edited) != measure(platform, build(LEDGER))


def test_an_overriding_subclass_method_moves_mrenclave(platform):
    override = AUDITED + '''
    @ecall
    def balance(self):
        return 0
'''
    assert measure(platform, build(LEDGER, override, name="Audited")) \
        != measure(platform, build(LEDGER, AUDITED, name="Audited"))


def test_a_changed_base_method_moves_an_unchanged_subclass(platform):
    edited = LEDGER.replace("amount >= 100", "amount >= 1000")
    assert measure(platform, build(edited, AUDITED, name="Audited")) \
        != measure(platform, build(LEDGER, AUDITED, name="Audited"))


def test_a_method_replaced_on_the_live_class_moves_mrenclave(platform):
    library = build(LEDGER)
    before = measure(platform, library)
    library.balance = ecall(lambda self: 0)
    assert measure(platform, library) != before


def test_running_the_code_does_not_move_mrenclave(platform, vendor_key):
    """CPython rewrites hot bytecode in place; the measurement reads
    the code as compiled, so a restarted enclave unseals its state."""
    library = build(LEDGER)
    before = measure(platform, library)
    enclave = load_enclave(platform, library, vendor_key)
    for amount in range(1, 60):
        enclave.ecall("deposit", amount)
        enclave.ecall("flagged")
        enclave.ecall("balance")
        enclave.ecall("audit")
    assert measure(platform, library) == before
    assert enclave.mr_enclave == before


def test_the_measurement_is_the_same_in_every_process():
    """No hash seed reaches it: frozenset constants are ordered."""
    script = (
        "from repro.core.engine import ScbrEnclaveLibrary as E\n"
        "from repro.sgx.enclave import EnclaveBuilder\n"
        "from repro.sgx.platform import SgxPlatform\n"
        "from repro.sgx.sdk import EnclaveLibrary, ecall\n"
        "ns = {'EnclaveLibrary': EnclaveLibrary, 'ecall': ecall}\n"
        f"exec({LEDGER!r}, ns)\n"
        "p = SgxPlatform(attestation_key_bits=512)\n"
        "print(EnclaveBuilder(p, ns['Ledger']).measure().hex(),\n"
        "      EnclaveBuilder(p, E).measure().hex())\n")
    outputs = {subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
    ).stdout for seed in ("1", "2", "3")}
    assert len(outputs) == 1


def test_the_declared_sizes():
    """The engine keeps its seven code pages; a library that declares
    nothing loads one."""
    assert ScbrEnclaveLibrary.CODE_BYTES == 26_020
    assert build(LEDGER).CODE_BYTES == EnclaveLibrary.CODE_BYTES == 4096
