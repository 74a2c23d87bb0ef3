"""The pin registry: every byte-level regression pin of the suite, by name.

A small output is pinned as its exact text, in the file ``pins/<name>``;
a large one as the sha256 of its bytes, under ``<name>`` in
``pins/digests.json``.  A producer returns a ``str`` for a text pin and
a ``hashlib`` object for a digest pin, so the code that makes a pin sets
its form.  ``test_golden`` and ``test_corpora`` each declare their pins
in ``PINS`` (pin name -> producer of no arguments) and check them group
by group with :func:`check`.  ``python tests/record_pins.py`` rewrites
the registry from the current code and prints what moved.
"""

import difflib
import functools
import hashlib
import importlib
import json
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins"
DIGESTS = PINS / "digests.json"

# The ledger: one digest of the whole registry per package version.  A
# changed pin fails test_golden's ledger test until __version__ is bumped
# and the new digest recorded under it, so replay refuses the manifests
# whose bytes the change could move.  The entries before 0.4.0 digest the
# pins of their version in the form they had then.
PIN_DIGESTS = {
    "0.1.0": "ade27149da1b6b87cac147a1f5514a9018e9f5566f82fa043562b51bf4f45123",
    "0.2.0": "a31e8d9607de957fb8c81869120cdd0854cb270bc3aca2c71bf8cc217b0f60c7",
    "0.3.0": "8e583ae3c036c0da13091c4cd61760bf9577da8ce787555b39b1316e072785e8",
    "0.4.0": "31649181bc5a87ada4ad2ba27b352ff785b89bd1dee748bb9c0b5717d4c9b8ff",
}


def declared() -> dict:
    """Every pin the test modules declare: name -> producer."""
    modules = [importlib.import_module(name) for name in ("test_golden", "test_corpora")]
    return {name: produce for module in modules for name, produce in module.PINS.items()}


def split(names, produce) -> dict:
    """One producer per name, each reading its output from one shared call of ``produce() -> {name: output}``."""
    produce = functools.cache(produce)
    return {name: functools.partial(lambda key: produce()[key], name) for name in names}


def files() -> list:
    """The registry's files, by path relative to ``PINS``."""
    return sorted(path.relative_to(PINS).as_posix() for path in PINS.rglob("*") if path.is_file())


def digests() -> dict:
    return json.loads(DIGESTS.read_bytes()) if DIGESTS.exists() else {}


def entries() -> list:
    """The name of every pin in the registry, once per file or digest that holds it."""
    return [name for name in files() if name != DIGESTS.name] + list(digests())


def report(name: str, output) -> str | None:
    """None if ``output`` equals its registry entry; otherwise what moved, naming the pin, with a diff for a text pin."""
    if not isinstance(output, str):
        got, want = output.hexdigest(), digests().get(name)
        return None if got == want else f"{name}: sha256 {got}, pinned {want}"
    want = (PINS / name).read_bytes().decode("utf-8") if (PINS / name).is_file() else ""
    diff = "".join(difflib.unified_diff(want.splitlines(True), output.splitlines(True), f"pins/{name}", "now", n=0))
    return f"{name}: moved\n{diff}" if diff else None


def check(pins: dict, group: str) -> None:
    """Produce every pin of ``pins`` named ``group`` or under ``group/``, and assert that each equals its registry entry."""
    names = [name for name in pins if name == group or name.startswith(group + "/")]
    assert names, f"no pin is named {group}"
    moved = [line for name in names if (line := report(name, pins[name]()))]
    assert not moved, "\n".join(moved) + "\nif the change is meant, run python tests/record_pins.py"


def ledger_digest() -> str:
    """The sha256 of the registry's ``sha256sum`` listing: each file's digest and path, in path order."""
    listing = "".join(f"{hashlib.sha256((PINS / name).read_bytes()).hexdigest()}  {name}\n" for name in files())
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()
