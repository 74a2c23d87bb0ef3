"""Rewrite the pin registry under tests/pins from the code of this checkout.

    python tests/record_pins.py

It prints each pin that moved or is gone (a new pin counts as moved),
rewrites the registry, and prints the ledger digest to record in
``pinning.PIN_DIGESTS`` under a new ``bellcheck.__version__``.
``git diff tests/pins`` then shows every moved line of a text pin and
every moved digest.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bellcheck  # noqa: E402
import pinning  # noqa: E402


def main() -> None:
    pins = pinning.declared()
    outputs = {name: pins[name]() for name in sorted(pins)}
    texts = {name: output for name, output in outputs.items() if isinstance(output, str)}
    for name, output in outputs.items():
        if line := pinning.report(name, output):
            print(line.splitlines()[0])
    for name in sorted(set(pinning.entries()) - set(outputs)):
        print(f"{name}: gone")
    for name in set(pinning.files()) - {*texts, pinning.DIGESTS.name}:
        (pinning.PINS / name).unlink()
    for name, text in texts.items():
        (pinning.PINS / name).parent.mkdir(parents=True, exist_ok=True)
        (pinning.PINS / name).write_bytes(text.encode("utf-8"))
    digests = {name: output.hexdigest() for name, output in outputs.items() if name not in texts}
    pinning.DIGESTS.write_bytes((json.dumps(digests, indent=2, sort_keys=True) + "\n").encode("ascii"))
    digest, version = pinning.ledger_digest(), bellcheck.__version__
    state = "as recorded" if pinning.PIN_DIGESTS.get(version) == digest else "not recorded: bump __version__ and record it"
    print(f"ledger digest {digest} for bellcheck {version}: {state}")


if __name__ == "__main__":
    main()
