"""Command-line front end.

Subcommands: derive, certify, falsify, simulate, compare.  Every run
prints a single JSON document that echoes the full effective config and
the tool version, so any output can be reproduced exactly from the
report alone.  Exit codes:

    0   success (derive/certify verified, falsify found a witness,
        simulate/compare passed)
    1   clean falsification run with no witness, or a failed
        comparison/simulation gate
    2   verification failure (a certificate did not verify, or a ledger
        is malformed, incomplete, of another format_version, or has a
        header past its bounds: n_max above 512, a negative seed, more
        than 16 theta_base values)
    64  usage error (bad flags, a seed that is not an integer >= 0,
        unparseable candidate, invalid fraction, a parameter out of its
        range, a non-finite --theta, a --threshold or --tolerance that is
        not finite or lies below 1e-12, a --step-scale above 10, a size
        past its bound: --n-max or an --n-range dimension above 512,
        --n-max above 16 with --full-certificates, more than 16 --theta
        values, --grid above 2^20, --trials or --optimizer-steps above
        10^6, --samples above 10^12, more than 512 --probs fractions),
        or an output path or stdout that cannot be written
    66  input file unreadable, or larger than 89 MiB

The environment variable BORN_SEED overrides the default seed.  Output
is strict JSON: a non-finite number is written as the string "inf",
"-inf" or "nan".
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import itertools
import json
import math
import os
import re
import stat
import sys
import time
from array import array
from collections.abc import Sequence
from fractions import Fraction
from typing import Iterable, Iterator

from . import __version__
from .axioms import candidate_from_expression
from .derivation import (
    MAX_DIMENSION,  # derive --n-max, a stored n_max, falsify --n-range, simulate --probs cells
    MAX_THETAS,  # derive/falsify --theta values; a ledger entry holds one more
    ConstraintLedger,
    build_ledger,
    compare_to_born,
    continuity_extension_check,
    ledger_specs,
    read_specs,
    verify_ledger,
)
from .errors import CertificateError, ParameterError, ParseError
from .falsifier import FalsifierConfig, falsify
from .montecarlo import simulate_fractions

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_VERIFICATION = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66

# bounds on the sizes a user controls, checked before anything is allocated
MAX_GRID = 1 << 20  # compare --grid
MAX_STEPS = 10**6  # falsify --trials, --optimizer-steps
MAX_SAMPLES = 10**12  # simulate --samples
MAX_FULL_CERTIFICATES_N = 16  # derive --n-max with --full-certificates: N x N bases inline
# a ledger file (certify, compare), refused before it is read: the largest
# derive report, at --n-max 512 with --rotate-bases and 16 --theta values
# of the longest float repr (24 characters), is 79.8 MB at seed 0
MAX_LEDGER_BYTES = 89 * 2**20
# floor of falsify --threshold and compare --tolerance: residuals of the
# Born rule itself reach about 3e-15 from float rounding at N = 512 (optimizer)
MIN_TOLERANCE = 1e-12
# stands in for a derive report's ledger entries, which _emit writes one at a time
_ENTRIES = "\0entries"
# what json.load reads with: NaN and Infinity accepted, strings strict
_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")  # JSON whitespace, json.decoder.WHITESPACE
_WINDOW = 1 << 16  # bytes of a ledger file decoded, or read back, at a time


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-20" for a flag, since its own pattern has no
        # exponent; with this one "--theta -1e-20" parses as "--theta=-1e-20"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """A seed: numpy's SeedSequence takes non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{seed} is negative")
    return seed


def _default_seed() -> int:
    raw = os.environ.get("BORN_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise _UsageError(f"BORN_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise _UsageError(f"BORN_SEED must be >= 0, got {seed}")
    return seed


def _finite_json(value):
    """value with each non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    return value


def _emit(subcommand: str, config: dict, result: dict, path=None, entries=()) -> None:
    """Write the report as json.dumps(payload, sort_keys=True,
    allow_nan=False) writes it, on one line.  A derive report's ledger holds
    _ENTRIES in place of its entries, which are encoded and written one at a
    time, so that no whole payload or text of the ledger is built."""
    payload = {
        "tool": "bornlab",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "subcommand": subcommand,
        "config": config,
        "result": result,
    }
    options = {"sort_keys": True, "allow_nan": False}  # no indent: the C encoder, one line
    try:
        text = json.dumps(payload, **options)
    except ValueError:  # a non-finite float; rare, so only then walk the payload
        text = json.dumps(_finite_json(payload), **options)
    head, marker, tail = text.partition(json.dumps(_ENTRIES))
    _write(path, itertools.chain((head,), _json_list(entries) if marker else (), (tail, "\n")))


def _json_list(items) -> Iterator[str]:
    """The JSON list of the items, as json.dumps writes it with sort_keys and
    allow_nan=False, one item at a time."""
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    yield "["
    for i, item in enumerate(items):
        yield ", " + encode(item) if i else encode(item)
    yield "]"


def _write(path, texts: Iterable[str]) -> None:
    """Write the texts to the file at path, or to stdout if there is none, in
    slices of at most 2^20 characters: no text is copied whole to be encoded."""
    pieces = (t[i:i + 2**20] for t in texts for i in range(0, len(t), 2**20))
    if not path and sys.stdout is None:  # started with fd 1 closed
        raise _UsageError("cannot write output to stdout: it is closed")
    try:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        if not path:  # the interpreter flushes stdout again at exit: let that flush succeed
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = repr(path) if path else "to stdout"
        raise _UsageError(f"cannot write output {where}: {exc.strerror or exc}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < MIN_TOLERANCE:
        raise argparse.ArgumentTypeError(f"{text!r} is below the floor {MIN_TOLERANCE}")
    return value


def _parse_fraction(text: str) -> Fraction:
    try:
        num, den = text.split("/")
        frac = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"invalid fraction {text!r}, expected K/N")
    if not 0 <= frac <= 1:
        raise _UsageError(f"fraction {text!r} must lie in [0, 1]")
    return frac


def _parse_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            low, high = map(int, text.split(".."))
            dims = range(low, high + 1)  # lazy, so a huge range is refused before it is built
        else:
            dims = tuple(int(x) for x in text.split(","))
            low, high = min(dims), max(dims)
    except ValueError:
        raise _UsageError(f"invalid dimension range {text!r}, expected A..B or a list")
    if not dims or low < 1 or high > MAX_DIMENSION:
        raise _UsageError(
            f"dimension range {text!r} must cover dimensions in 1..{MAX_DIMENSION}"
        )
    return tuple(dims)


class _Unreadable(Exception):
    """A stored entry of a ledger file that no longer reads as it was indexed."""


class _StoredEntries(Sequence):
    """The entries array of a ledger file: the byte span of each entry,
    read(offset, size) giving the file's bytes.  Entry i is read and decoded
    when it is read, and not kept; in turn, the file is read forward
    _WINDOW bytes at a time.  A fault raises _Unreadable."""

    def __init__(self, read, spans: array):
        self.read, self.spans = read, spans

    def __len__(self) -> int:
        return len(self.spans) // 2

    def __getitem__(self, i):
        return next(self._entries((self.spans[2 * i], self.spans[2 * i + 1]), 0))

    def __iter__(self):
        return self._entries(self.spans, _WINDOW)

    def _entries(self, spans, window: int):
        """The entry of each (start, end) pair of spans, read in at least
        window bytes at a time."""
        data, base = b"", 0  # the bytes read last, from offset base
        try:
            for start, end in zip(spans[::2], spans[1::2]):
                if end - base > len(data):
                    data, base = self.read(start, max(window, end - start)), start
                text = data[start - base:end - base].decode("utf-8")
                value, at = _DECODER.scan_once(text, 0)
                if at != len(text):
                    raise ValueError(text)
                yield value
        except OSError as exc:
            raise _Unreadable(exc) from None
        except (ValueError, StopIteration):
            raise _Unreadable("the file changed while it was read") from None


def _scan(text: str, at: int):
    """(value, end) of the JSON value at text[at], as json.loads decodes it."""
    try:
        return _DECODER.scan_once(text, at)
    except StopIteration as stop:
        raise json.JSONDecodeError("Expecting value", text, stop.value) from None


class _Text:
    """The text of the first ``size`` bytes that read(offset, size) gives,
    decoded from UTF-8 a window of ``window`` bytes at a time.  Positions
    count characters from the start.  The text before the last ``drop`` goes
    when the next window is read, and a value longer than the window doubles
    it.  An error is json.loads' own only if the window holds the whole text."""

    def __init__(self, read, size: int, window: int):
        self.read, self.size, self.window = read, size, window
        self.text, self.start = "", 0  # the window, from the character at start
        self.kept = self.byte = 0  # the first character kept, and its byte offset
        self.next, self.done = 0, False  # the offset of the next byte to read
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.grow()

    def grow(self) -> None:
        """Read the next window, or reach the end of the text."""
        kept = self.text[self.kept - self.start:]
        data = self.read(self.next, min(max(self.window, len(kept)), self.size - self.next))
        self.next += len(data)
        self.done = not data or self.next >= self.size
        self.text, self.start = kept + self.decode(data, self.done), self.kept

    def drop(self, pos: int) -> int:
        """The byte offset of the character at pos, no earlier one of which
        is read again."""
        if self.text.isascii():
            self.byte += pos - self.kept
        else:
            self.byte += len(self.text[self.kept - self.start:pos - self.start].encode())
        self.kept = pos
        return self.byte

    def char(self, pos: int) -> str:
        """The character at pos, or "" past the end."""
        while pos - self.start >= len(self.text) and not self.done:
            self.grow()
        return self.text[pos - self.start:pos - self.start + 1]

    def skip(self, pos: int) -> tuple[int, str]:
        """The first position at or after pos that holds no JSON whitespace,
        and its character ("" past the end)."""
        while True:
            end = _SPACE.match(self.text, pos - self.start).end()
            if end < len(self.text) or self.done:
                return self.start + end, self.text[end:end + 1]
            pos = self.start + end
            self.drop(pos)  # whitespace is not kept, however long it runs
            self.grow()

    def scan(self, pos: int, scan=_scan):
        """scan(text, pos) of the whole text: (value, end)."""
        while True:
            try:
                value, end = scan(self.text, pos - self.start)
                # a number cut at the window's end reads as a shorter one, and
                # leaves at most two characters unread ("1e-")
                if end + 3 <= len(self.text) or self.done:
                    return value, self.start + end
            except ValueError:
                if self.done:
                    raise
            self.grow()

    def error(self, message: str, pos: int) -> json.JSONDecodeError:
        return json.JSONDecodeError(message, self.text, pos - self.start)


def _walk(src: _Text, at: int, descend=("result", "ledger")):
    """(value, end) of the JSON value at position at, as ``src.scan`` gives
    it, but an object's members are read one at a time: an "entries" array
    is indexed (``_index``), and the value of a key in ``descend`` is walked
    in turn, with the keys after it.  The errors are json.loads' own."""
    if src.char(at) != "{":
        return src.scan(at)
    members, (end, char) = {}, src.skip(at + 1)
    if char == "}":
        return members, end + 1
    while True:
        src.drop(end)
        if char != '"':
            raise src.error("Expecting property name enclosed in double quotes", end)
        key, end = src.scan(end + 1, json.decoder.scanstring)
        end, char = src.skip(end)
        if char != ":":
            raise src.error("Expecting ':' delimiter", end)
        end, char = src.skip(end + 1)
        if key == "entries" and char == "[":
            members[key], end = _index(src, end)
        elif key in descend:
            members[key], end = _walk(src, end, descend[descend.index(key) + 1:])
        else:
            members[key], end = src.scan(end)  # a later duplicate key wins, as in json
        end, char = src.skip(end)
        if char == "}":
            return members, end + 1
        if char != ",":
            raise src.error("Expecting ',' delimiter", end)
        end, char = src.skip(end + 1)


def _index(src: _Text, at: int):
    """(_StoredEntries, end) of the array at position at: each element is
    decoded once, to find its byte span, and dropped."""
    spans, (end, char) = array("q"), src.skip(at + 1)
    if char != "]":
        while True:
            start = src.drop(end)
            end = src.scan(end)[1]
            spans.extend((start, src.drop(end)))
            end, char = src.skip(end)
            if char == "]":
                break
            if char != ",":
                raise src.error("Expecting ',' delimiter", end)
            end = src.skip(end + 1)[0]
    return _StoredEntries(src.read, spans), end + 1


def _parse(read, size: int):
    """json.loads of the first size bytes that read(offset, size) gives, with
    each "entries" array of the objects ``_walk`` reads as ``_StoredEntries``:
    the whole text is parsed, and any syntax error raised, before an entry
    is checked.  The text is read in windows of _WINDOW bytes; if that pass
    fails, it is parsed again in one window, for json.loads' error."""
    try:
        return _walk_text(_Text(read, size, _WINDOW))
    except (ValueError, RecursionError):
        pass
    return _walk_text(_Text(read, size, size))


def _walk_text(src: _Text):
    """The JSON value that is the whole text, as ``_walk`` reads it."""
    if src.char(0) == "\ufeff":
        raise src.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    payload, end = _walk(src, src.skip(0)[0])
    end, char = src.skip(end)
    if char:
        raise src.error("Extra data", end)
    return payload


def _reader(handle):
    """(read, size) of the file open as handle, if it holds at most
    MAX_LEDGER_BYTES: read(offset, size) gives its bytes.  A regular file is
    read where it lies, and refused by its size before it is read; a pipe,
    which cannot be read again, is read once and held, and refused once it
    has given one byte more."""
    info = os.fstat(handle.fileno())
    if info.st_size > MAX_LEDGER_BYTES:
        raise ValueError(f"{info.st_size} bytes, past the bound of {MAX_LEDGER_BYTES}")
    if stat.S_ISREG(info.st_mode):
        fd = handle.fileno()
        return (lambda at, size: os.pread(fd, size, at)), info.st_size
    data = handle.read(MAX_LEDGER_BYTES + 1)
    if len(data) > MAX_LEDGER_BYTES:
        raise ValueError(f"more than {MAX_LEDGER_BYTES} bytes, past the bound of "
                         f"{MAX_LEDGER_BYTES}")
    return (lambda at, size: data[at:at + size]), len(data)


@contextlib.contextmanager
def _read_ledger(path: str):
    """The ledger payload of a derive report (or of a bare ledger) on disk,
    parsed by ``_parse``, while the file is open for its stored entries."""
    with contextlib.ExitStack() as stack:
        try:
            payload = _parse(*_reader(stack.enter_context(open(path, "rb"))))
        # ValueError covers a file past the bound, bad JSON, bad UTF-8 and
        # integers past Python's digit limit; RecursionError, nesting deeper
        # than the decoder's
        except (OSError, ValueError, RecursionError) as exc:
            raise FileNotFoundError(f"cannot read ledger {path!r}: {exc}")
        for key in ("result", "ledger"):  # a whole derive report, or the bare ledger
            if isinstance(payload, dict):
                payload = payload.get(key, payload)
        try:
            yield payload
        except _Unreadable as exc:  # a stored entry, read as it is checked
            raise FileNotFoundError(f"cannot read ledger {path!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bornlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    derive = sub.add_parser("derive", help="Build and verify the constraint ledger")
    derive.add_argument("--n-max", type=int, default=64)
    derive.add_argument("--theta", type=_finite_float, action="append", default=None)
    derive.add_argument("--rotate-bases", action="store_true")
    derive.add_argument("--full-certificates", action="store_true")
    derive.add_argument("--seed", type=_seed, default=None)
    derive.add_argument("-o", "--output", default=None)

    certify = sub.add_parser("certify", help="Re-verify a serialized ledger")
    certify.add_argument("ledger")
    certify.add_argument("-o", "--output", default=None)

    fals = sub.add_parser("falsify", help="Search for an axiom violation")
    fals.add_argument("-p", "--candidate", required=True)
    fals.add_argument("--n-range", default="2..8")
    fals.add_argument("--trials", type=int, default=50)
    fals.add_argument("--optimizer-steps", type=int, default=200)
    fals.add_argument("--step-scale", type=float, default=0.1)
    fals.add_argument("--threshold", type=_tolerance, default=1e-6)
    fals.add_argument("--theta", type=_finite_float, action="append", default=None)
    fals.add_argument("--seed", type=_seed, default=None)
    fals.add_argument("-o", "--output", default=None)

    sim = sub.add_parser("simulate", help="Frequentist check of Born weights")
    sim.add_argument("--fraction", default=None, help="K/N; simulates (K/N, 1-K/N)")
    sim.add_argument("--probs", default=None, help="comma-separated exact fractions")
    sim.add_argument("--samples", type=int, default=1_000_000)
    sim.add_argument("--seed", type=_seed, default=None)
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.add_argument("-o", "--output", default=None)

    comp = sub.add_parser("compare", help="Continuity probe against a ledger")
    comp.add_argument("-p", "--candidate", required=True)
    comp.add_argument("ledger")
    comp.add_argument("--grid", type=int, default=256)
    comp.add_argument("--tolerance", type=_tolerance, default=1e-9)
    comp.add_argument("-o", "--output", default=None)
    return parser


def _cmd_derive(args) -> int:
    if not 1 <= args.n_max <= MAX_DIMENSION:
        raise _UsageError(f"--n-max must lie in 1..{MAX_DIMENSION}, got {args.n_max}")
    if args.full_certificates and args.n_max > MAX_FULL_CERTIFICATES_N:
        raise _UsageError(
            f"--full-certificates needs --n-max <= {MAX_FULL_CERTIFICATES_N}, got {args.n_max}"
        )
    seed = args.seed if args.seed is not None else _default_seed()
    config = {
        "n_max": args.n_max,
        "theta": args.theta,
        "rotate_bases": args.rotate_bases,
        "full_certificates": args.full_certificates,
        "seed": seed,
    }
    try:
        ledger = build_ledger(args.n_max, args.theta, args.rotate_bases, seed)
    except CertificateError as exc:
        _emit("derive", config, {"error": str(exc)}, args.output)
        return EXIT_VERIFICATION
    born_gap = compare_to_born(ledger)
    # build_ledger decided every certificate, before the first byte is written,
    # and raised on any failure
    result = {
        "ledger": ledger.to_json(entries=_ENTRIES),
        "entry_count": len(ledger),
        "compare_to_born": f"{born_gap.numerator}/{born_gap.denominator}",
        "failures": [],
    }
    _emit("derive", config, result, args.output, ledger.json_entries(args.full_certificates))
    return EXIT_OK if born_gap == 0 else EXIT_VERIFICATION


def _cmd_certify(args) -> int:
    config = {"ledger": args.ledger}
    try:
        with _read_ledger(args.ledger) as payload:
            ledger = ConstraintLedger.from_json(payload)
    except CertificateError as exc:
        _emit("certify", config, {"verified": False, "error": str(exc)}, args.output)
        return EXIT_VERIFICATION
    failures = verify_ledger(ledger)
    result = {
        "verified": not failures and compare_to_born(ledger) == 0,
        "entry_count": len(ledger),
        "failures": [list(f) for f in failures],
    }
    _emit("certify", config, result, args.output)
    return EXIT_OK if result["verified"] else EXIT_VERIFICATION


def _cmd_falsify(args) -> int:
    try:
        candidate = candidate_from_expression(args.candidate)
    except ParseError as exc:
        raise _UsageError(f"candidate does not parse: {exc}")
    n_range = _parse_range(args.n_range)
    for flag, value in (("--trials", args.trials), ("--optimizer-steps", args.optimizer_steps)):
        if not 0 <= value <= MAX_STEPS:
            raise _UsageError(f"{flag} must lie in 0..{MAX_STEPS}, got {value}")
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = FalsifierConfig(
        n_range=n_range,
        random_trials=args.trials,
        optimizer_steps=args.optimizer_steps,
        step_scale=args.step_scale,
        violation_threshold=args.threshold,
        seed=seed,
    )
    # the probes rebuild their bases from their specs, so no certificate is
    # derived, and only the dimensions in n_range are enumerated
    _, specs = ledger_specs(max(n_range), args.theta, seed=seed, dims=n_range)
    outcome = falsify(candidate, cfg, specs)
    config = {
        "candidate": args.candidate,
        "n_range": list(n_range),
        "trials": args.trials,
        "optimizer_steps": args.optimizer_steps,
        "step_scale": args.step_scale,
        "threshold": args.threshold,
        "theta": args.theta,
        "seed": seed,
    }
    _emit("falsify", config, outcome.to_json(), args.output)
    return EXIT_OK if outcome.falsified else EXIT_FAIL


def _cmd_simulate(args) -> int:
    if (args.fraction is None) == (args.probs is None):
        raise _UsageError("give exactly one of --fraction or --probs")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise _UsageError(f"--samples must lie in 1..{MAX_SAMPLES}, got {args.samples}")
    if args.fraction is not None:
        frac = _parse_fraction(args.fraction)
        probs = [frac] if frac == 1 else [frac, 1 - frac]
    else:
        parts = args.probs.split(",")
        if len(parts) > MAX_DIMENSION:
            raise _UsageError(f"--probs takes at most {MAX_DIMENSION} fractions, got {len(parts)}")
        try:
            probs = [Fraction(part) for part in parts]
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"invalid --probs {args.probs!r}")
    seed = args.seed if args.seed is not None else _default_seed()
    config = {
        "fraction": args.fraction,
        "probs": args.probs,
        "samples": args.samples,
        "seed": seed,
        "format": args.format,
    }
    report = simulate_fractions(probs, args.samples, seed)
    if args.format == "csv":
        _write(args.output, [report.to_csv()])
    else:
        _emit("simulate", config, report.to_json(), args.output)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_compare(args) -> int:
    try:
        candidate = candidate_from_expression(args.candidate)
    except ParseError as exc:
        raise _UsageError(f"candidate does not parse: {exc}")
    if not 2 <= args.grid <= MAX_GRID:
        raise _UsageError(f"--grid must lie in 2..{MAX_GRID}, got {args.grid}")
    config = {
        "candidate": args.candidate,
        "ledger": args.ledger,
        "grid": args.grid,
        "tolerance": args.tolerance,
    }
    try:
        # the probes read no certificate, so none is re-derived
        with _read_ledger(args.ledger) as payload:
            theta_base, specs = read_specs(payload)
    except CertificateError as exc:
        _emit("compare", config, {"passed": False, "error": str(exc)}, args.output)
        return EXIT_VERIFICATION
    report = continuity_extension_check(candidate, theta_base, specs, args.grid)
    passed = (
        report["max_rational_residual"] <= args.tolerance
        and report["max_grid_deviation_from_born"] <= args.tolerance
    )
    report["passed"] = passed
    _emit("compare", config, report, args.output)
    return EXIT_OK if passed else EXIT_FAIL


_COMMANDS = {
    "derive": _cmd_derive,
    "certify": _cmd_certify,
    "falsify": _cmd_falsify,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if len(getattr(args, "theta", None) or ()) > MAX_THETAS:  # derive, falsify
            raise _UsageError(f"at most {MAX_THETAS} --theta values, got {len(args.theta)}")
        return _COMMANDS[args.subcommand](args)
    except (_UsageError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT


if __name__ == "__main__":
    sys.exit(main())
