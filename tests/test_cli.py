import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bornlab
from bornlab import (
    FalsifierConfig,
    build_ledger,
    candidate_from_expression,
    cli,
    construction,
    derivation,
    dsl,
    falsify,
)
from bornlab.cli import MAX_LEDGER_BYTES, MAX_THETAS, main
from bornlab.derivation import ledger_specs

import reference
from conftest import schema_validator


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main(list(argv) + ["-o", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def strict_json(text):
    """Parse text as RFC 8259 JSON: a bare Infinity or NaN is an error."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def strip_timestamp(payload):
    doc = dict(payload)
    doc.pop("timestamp", None)
    return doc


class TestDerive:
    def test_n_max_3_fractions(self, tmp_path):
        code, payload = run(tmp_path, "derive", "--n-max", "3")
        assert code == 0
        fractions = {e["value"]["fraction"] for e in payload["result"]["ledger"]["entries"]}
        assert fractions == {"0/1", "1/3", "1/2", "2/3", "1/1"}
        assert payload["result"]["compare_to_born"] == "0/1"

    def test_n_max_1(self, tmp_path):
        code, payload = run(tmp_path, "derive", "--n-max", "1")
        assert code == 0
        assert payload["result"]["entry_count"] == 2

    def test_n_max_0_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "derive", "--n-max", "0")
        assert code == 64

    def test_one_line_of_sorted_strict_json(self, tmp_path, capsys):
        # json.dumps with an indent falls back to the pure-Python encoder
        for argv in (["derive", "--n-max", "3", "--seed", "0"],
                     ["simulate", "--fraction", "1/3", "--seed", "0"]):
            capsys.readouterr()
            assert main(argv) == 0
            text = capsys.readouterr().out
            assert text.endswith("\n") and text.count("\n") == 1
            assert text == json.dumps(strict_json(text), sort_keys=True) + "\n"

    def test_schema(self, tmp_path):
        _, payload = run(tmp_path, "derive", "--n-max", "4")
        schema_validator("ledger.schema.json").validate(payload)

    def test_full_certificates_schema(self, tmp_path):
        _, payload = run(tmp_path, "derive", "--n-max", "3", "--full-certificates")
        schema_validator("ledger.schema.json").validate(payload)

    @pytest.mark.parametrize("rotate", [False, True], ids=["standard", "rotated"])
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("n_max", [1, 7, 64])
    def test_digest_matches_the_stdlib_reference(self, tmp_path, n_max, seed, rotate):
        # the byte layout of README "Ledger format", hashed one entry at a
        # time, over probes enumerated from the header as README's RNG
        # contract states them
        argv = ["derive", "--n-max", str(n_max), "--seed", str(seed)] + ["--rotate-bases"] * rotate
        thetas = [0.0, 1.0, math.pi, 5.5]
        code, payload = run(tmp_path, *argv)
        assert code == 0
        rows = reference.ledger_rows(n_max, thetas, rotate, seed)
        assert payload["result"]["ledger"]["digest"] == reference.probe_digest(rows)
        if (n_max, seed, rotate) == (7, 3, True):  # 16 --theta values of 17 characters and more
            thetas = [-1.2345678901234567e-300 * (i + 1) for i in range(MAX_THETAS)]
            code, payload = run(tmp_path, *argv, *[f"--theta={t!r}" for t in thetas])
            assert code == 0
            rows = reference.ledger_rows(n_max, thetas, rotate, seed)
            assert payload["result"]["ledger"]["digest"] == reference.probe_digest(rows)

    @pytest.mark.parametrize("theta", ["-1e-20", "-2.5e0", "-.5", "-3"])
    def test_negative_theta_as_its_own_argument(self, tmp_path, theta):
        # argparse's own pattern for a negative number has no exponent
        code, joined = run(tmp_path, "derive", "--n-max", "4", f"--theta={theta}", name="a.json")
        assert code == 0
        code, apart = run(tmp_path, "derive", "--n-max", "4", "--theta", theta, name="b.json")
        assert code == 0
        assert strip_timestamp(apart) == strip_timestamp(joined)
        assert apart["config"]["theta"] == [float(theta)]
        code, payload = run(tmp_path, "falsify", "-p", "r", "--n-range", "2", "--theta", theta)
        assert code == 0
        assert payload["config"]["theta"] == [float(theta)]


def derive_output(tmp_path, capsys, argv, to):
    """(exit code, text) of ``derive`` written with -o, or to stdout."""
    if to == "stdout":
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr().out
    out = tmp_path / "derived.json"
    code = main(argv + ["-o", str(out)])
    return code, out.read_text()


class TestStreamedReport:
    """derive writes its ledger one entry at a time, yet the bytes are those
    of json.dumps(payload, sort_keys=True, allow_nan=False) of the whole
    payload, built in memory."""

    # n_max, --theta values, --rotate-bases, --full-certificates
    CASES = {
        "standard-n1": (1, None, False, False),
        "standard-n16": (16, None, False, False),
        "rotated-n12": (12, None, True, False),
        "thetas": (9, [0.0, -1.5, 1e-300, 7.25, 6.283185307179586], False, False),
        "one-theta-rotated": (7, [2.0], True, False),
        "full-certificates": (5, None, False, True),
        "full-certificates-rotated": (4, [0.3, 4.0], True, True),
    }

    @pytest.mark.parametrize("to", ["file", "stdout"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_of_the_whole_payload(self, tmp_path, capsys, case, to):
        n_max, thetas, rotate, full = self.CASES[case]
        argv = ["derive", "--n-max", str(n_max), "--seed", "3"]
        argv += [f"--theta={t!r}" for t in thetas or ()]
        argv += ["--rotate-bases"] * rotate + ["--full-certificates"] * full
        code, text = derive_output(tmp_path, capsys, argv, to)
        assert code == 0
        ledger = build_ledger(n_max, thetas, rotate, 3)
        payload = {
            "tool": "bornlab",
            "version": bornlab.__version__,
            "timestamp": json.loads(text)["timestamp"],
            "subcommand": "derive",
            "config": {"n_max": n_max, "theta": thetas, "rotate_bases": rotate,
                       "full_certificates": full, "seed": 3},
            "result": {"ledger": ledger.to_json(full), "entry_count": len(ledger.entries),
                       "compare_to_born": "0/1", "failures": []},
        }
        assert text == json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"

    def test_full_certificates_stream(self, monkeypatch):
        # each entry's N x N construction is built as the entry is written,
        # not every one before the first
        built = []
        real = construction.partial_dft_basis
        monkeypatch.setattr(construction, "partial_dft_basis",
                            lambda base, k: built.append(k) or real(base, k))
        ledger = build_ledger(16)
        entries = ledger.json_entries(True)
        next(entries)
        assert len(built) <= 1
        assert 1 + sum(1 for _ in entries) == len(ledger)
        assert len(built) == len(ledger) - 2  # the counter counts: all but P(0) and 1/1

    @pytest.mark.parametrize("to", ["file", "stdout"])
    @pytest.mark.parametrize("fault", ["exact", "float"])
    def test_failed_certificate_writes_the_error_report_only(self, tmp_path, capsys,
                                                             monkeypatch, fault, to):
        # every certificate is decided before the first byte: no partial ledger
        if fault == "exact":
            monkeypatch.setattr(derivation, "roots_of_unity_vanish", lambda k: k != 5)
            error = "exact certificate failed at K=5, N=6"
        else:
            monkeypatch.setattr(derivation, "OVERLAP_TOLERANCE", -1.0)
            error = "certificate failed at K=0, N=1, theta=0.0"
        code, text = derive_output(tmp_path, capsys, ["derive", "--n-max", "8"], to)
        assert code == 2
        assert text.endswith("\n") and text.count("\n") == 1
        payload = strict_json(text)
        assert payload["result"] == {"error": error}
        assert "entries" not in text


class TestCertify:
    def test_fresh_ledger_verifies(self, tmp_path):
        _, _ = run(tmp_path, "derive", "--n-max", "4", name="ledger.json")
        code, payload = run(tmp_path, "certify", str(tmp_path / "ledger.json"))
        assert code == 0
        assert payload["result"]["verified"]
        schema_validator("certify.schema.json").validate(payload)

    def test_tampered_ledger_rejected(self, tmp_path):
        run(tmp_path, "derive", "--n-max", "4", name="ledger.json")
        path = tmp_path / "ledger.json"
        doc = json.loads(path.read_text())
        doc["result"]["ledger"]["digest"] = "f" * 64
        path.write_text(json.dumps(doc))
        code, payload = run(tmp_path, "certify", str(path))
        assert code == 2
        assert not payload["result"]["verified"]

    def test_n_max_1_ledger_verifies(self, tmp_path):
        # the smallest ledger, P(0) and P(1), lies inside the header's bounds
        run(tmp_path, "derive", "--n-max", "1", name="l1.json")
        code, payload = run(tmp_path, "certify", str(tmp_path / "l1.json"))
        assert (code, payload["result"]["verified"], payload["result"]["entry_count"]) == (0, True, 2)
        assert run(tmp_path, "compare", "-p", "r^2", str(tmp_path / "l1.json"))[0] == 0

    def test_missing_file(self, tmp_path):
        assert main(["certify", str(tmp_path / "nope.json")]) == 66

    def test_derived_under_two_blas_threads_certifies_under_one(self, tmp_path):
        # threaded BLAS sums Gram products in another order once K >= 129,
        # so a digest of float bits would not survive the move
        src = os.path.dirname(os.path.dirname(bornlab.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        ledger = str(tmp_path / "ledger.json")
        for threads, argv in (("2", ["derive", "--n-max", "130", "-o", ledger]),
                              ("1", ["certify", ledger, "-o", str(tmp_path / "c.json")])):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-m", "bornlab.cli", *argv], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, (argv[0], done.stderr)
        assert json.loads((tmp_path / "c.json").read_text())["result"]["verified"] is True

    def test_huge_finite_theta_certifies(self, tmp_path):
        # a finite theta near the float limit is a valid sample, in and out
        code, _ = run(tmp_path, "derive", "--n-max", "3", "--theta", "1e308",
                      name="ledger.json")
        assert code == 0
        code, payload = run(tmp_path, "certify", str(tmp_path / "ledger.json"))
        assert code == 0
        assert payload["result"]["verified"]


def _drop(key):
    def mutate(ledger):
        del ledger["entries"][1][key]
    return mutate


def _set(index, key, value):
    def mutate(ledger):
        ledger["entries"][index][key] = value
    return mutate


def _set_header(**fields):
    def mutate(ledger):
        ledger.update(fields)
    return mutate


def _unreduce(ledger):
    entry = next(e for e in ledger["entries"] if (e["K"], e["N"]) == (1, 2))
    entry.update(K=2, N=4, value={"fraction": "2/4", "decimal": "0.5"})


# Each turns a fresh n_max = 4 ledger into one that certify and compare
# must reject with exit 2 and a JSON report, never a traceback.
MALFORMED_LEDGERS = {
    "empty-object": lambda ledger: ledger.clear(),
    "entries-not-a-list": lambda ledger: ledger.update(entries=5),
    "no-format-version": lambda ledger: ledger.pop("format_version"),
    "format-version-1": lambda ledger: ledger.update(format_version=1),
    "format-version-2": lambda ledger: ledger.update(format_version=2),
    "format-version-3": lambda ledger: ledger.update(format_version=3),
    "format-version-4": lambda ledger: ledger.update(format_version=4),
    "format-version-string": lambda ledger: ledger.update(format_version="5"),
    "entry-missing-N": _drop("N"),
    "entry-missing-value": _drop("value"),
    "entry-missing-K": _drop("K"),
    "entry-not-an-object": lambda ledger: ledger["entries"].__setitem__(2, [1, 2]),
    "float-K": _set(2, "K", 1.5),
    "string-N": _set(2, "N", "3"),
    "negative-K": _set(2, "K", -1),
    # the thetas of every entry are the header's theta_base and seeded ones
    "non-finite-theta": _set_header(theta_base=[1e400]),
    "huge-integer-theta": _set_header(theta_base=[10**400]),
    "string-theta": _set_header(theta_base=["1.0"]),
    "no-theta": _set_header(theta_base=[]),  # valid, but not the probes of the digest
    # the base kind of every entry is the header's rotate_bases, its seed the header's
    "negative-base-seed": _set_header(rotate_bases=True, seed=-1),
    "unknown-base-kind": _set_header(rotate_bases="sobol"),
    "no-digest": lambda ledger: ledger.pop("digest"),
    "digest-not-a-string": _set_header(digest=int("f" * 64, 16)),
    "tampered-digest": _set_header(digest="f" * 64),
    "truncated-to-3": lambda ledger: ledger.update(entries=ledger["entries"][:3]),
    "duplicate-entry": lambda ledger: ledger["entries"].append(ledger["entries"][2]),
    "unreduced-entry": _unreduce,
    "n-max-raised": lambda ledger: ledger.update(n_max=5),
    "n-max-zero": lambda ledger: ledger.update(n_max=0, entries=ledger["entries"][:1]),
    "too-many-thetas": _set_header(theta_base=[0.5] * 18),
    "too-many-base-thetas": lambda ledger: ledger.update(theta_base=[0.5] * 17),
    "negative-seed": lambda ledger: ledger.update(seed=-1),
    "n-max-above-bound": lambda ledger: ledger.update(n_max=513),
}

# Each turns a derive report into the raw text of a file that json.load
# itself refuses; certify and compare must exit 66 with a one-line input
# error, never a traceback.
UNREADABLE_LEDGERS = {
    "deep-nesting": lambda doc: "[" * 100_000,  # RecursionError
    # ValueError: past Python's 4,300-digit limit for int()
    "long-integer-n-max": lambda doc: re.sub(r'"n_max": \d+', '"n_max": ' + "9" * 5000,
                                              json.dumps(doc)),
}



def oversized_ledger(root) -> str:
    """A sparse file one byte past cli.MAX_LEDGER_BYTES, all zero bytes."""
    path = str(root / "oversized.json")
    open(path, "wb").close()
    os.truncate(path, MAX_LEDGER_BYTES + 1)
    return path


# Each changes one stored field of entry 2 (K/N = 1/3); certify and compare
# both compare it with the entry the header derives.
TAMPERED_FIELDS = {
    "value": ("value", {"fraction": "1/3", "decimal": "0.9"}),
    "value-unreduced": ("value", {"fraction": "2/6", "decimal": repr(1 / 3)}),
    "K": ("K", 2),
    "K-boolean": ("K", True),  # equal to 1 in Python, not in JSON
    "N": ("N", 4),
    "N-float": ("N", 3.0),  # equal to 3 in Python, not in JSON
}

DIGEST_MISMATCH = "digest mismatch: the header derives other probes than the ledger was written with"

# Each changes one header field so that it no longer describes the probes the
# ledger was derived with; the stored entries still match, but the digest
# of the probes the header derives does not.
TAMPERED_HEADERS = {
    "theta_base": ("theta_base", [0.123]),
    "rotate_bases": ("rotate_bases", True),
    "seed": ("seed", 99),  # moves each entry's seeded theta
}


def run_on_file(tmp_path, capsys, doc, *argv):
    """Run a subcommand on doc written to a file; return (exit code, stdout
    JSON) after checking that stderr carries no traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([*argv, str(path)])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, json.loads(out)


class TestMalformedLedger:
    @pytest.fixture()
    def ledger_doc(self, tmp_path):
        run(tmp_path, "derive", "--n-max", "4", name="ledger.json")
        return json.loads((tmp_path / "ledger.json").read_text())

    @pytest.mark.parametrize("case", sorted(MALFORMED_LEDGERS))
    def test_certify_exits_2_with_json(self, tmp_path, capsys, ledger_doc, case):
        MALFORMED_LEDGERS[case](ledger_doc["result"]["ledger"])
        code, payload = run_on_file(tmp_path, capsys, ledger_doc, "certify")
        assert code == 2
        assert payload["result"]["verified"] is False
        schema_validator("certify.schema.json").validate(payload)

    @pytest.mark.parametrize("case", sorted(MALFORMED_LEDGERS))
    def test_compare_exits_2_on_every_malformed_ledger(self, tmp_path, capsys, ledger_doc, case):
        MALFORMED_LEDGERS[case](ledger_doc["result"]["ledger"])
        code, payload = run_on_file(tmp_path, capsys, ledger_doc, "compare", "-p", "r^2")
        assert code == 2
        assert payload["result"]["passed"] is False
        schema_validator("compare.schema.json").validate(payload)

    @pytest.mark.parametrize("argv", [["certify"], ["compare", "-p", "r^2"]])
    @pytest.mark.parametrize("case", sorted(UNREADABLE_LEDGERS))
    def test_unreadable_file_exits_66(self, tmp_path, capsys, ledger_doc, argv, case):
        path = tmp_path / "doc.json"
        path.write_text(UNREADABLE_LEDGERS[case](ledger_doc))
        capsys.readouterr()
        assert main([*argv, str(path)]) == 66
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"input error: cannot read ledger {str(path)!r}")

    @pytest.mark.parametrize("argv", [["certify"], ["compare", "-p", "r^2"]])
    def test_oversized_file_refused_before_it_is_read(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        class Unread(io.BufferedReader):
            def read(self, *args):
                raise AssertionError("the file was read")

        path = oversized_ledger(tmp_path)
        monkeypatch.setattr(cli, "open", lambda name, *args, **kwargs: Unread(io.FileIO(name)),
                            raising=False)
        capsys.readouterr()
        assert main([*argv, path]) == 66
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"input error: cannot read ledger {path!r}: "
                              f"{MAX_LEDGER_BYTES + 1} bytes, past the bound")

    @pytest.mark.parametrize("argv", [["certify"], ["compare", "-p", "r^2"]])
    def test_piped_file_past_the_bound_refused(self, tmp_path, capsys, monkeypatch, argv):
        # a pipe's size reads 0, so the bound holds for the bytes read as well
        run(tmp_path, "derive", "--n-max", "4", name="ledger.json")
        data = (tmp_path / "ledger.json").read_bytes()
        for bound, code in ((len(data), 0), (len(data) - 1, 66)):
            monkeypatch.setattr(cli, "MAX_LEDGER_BYTES", bound)
            read, write = os.pipe()
            path = f"/dev/fd/{read}"
            try:
                os.write(write, data)  # a few kB: the pipe's buffer holds them all
                os.close(write)
                capsys.readouterr()
                assert main([*argv, path]) == code
            finally:
                os.close(read)
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"input error: cannot read ledger {path!r}: more than {bound} bytes, "
                       f"past the bound of {bound}\n")

    @pytest.mark.parametrize("key, value, error", [
        ("n_max", 10**6, "ledger n_max must lie in 1..512"),
        ("seed", -1, "ledger seed must be >= 0"),
        ("theta_base", [0.5] * 2000, "ledger theta_base holds more than 16 values"),
    ])
    def test_header_bounded_before_any_entry(self, tmp_path, capsys, ledger_doc, monkeypatch,
                                             key, value, error):
        def refuse(*args):
            raise AssertionError("an entry was read or derived")

        # certify derives, and compare reads, every entry from ledger_specs
        monkeypatch.setattr(derivation, "ledger_specs", refuse)
        ledger_doc["result"]["ledger"][key] = value
        for argv in (["certify"], ["compare", "-p", "r^2"]):
            code, payload = run_on_file(tmp_path, capsys, ledger_doc, *argv)
            assert (code, payload["result"]["error"]) == (2, error)

    def test_old_format_asks_for_rederive(self, tmp_path, capsys, ledger_doc):
        del ledger_doc["result"]["ledger"]["format_version"]
        code, payload = run_on_file(tmp_path, capsys, ledger_doc, "certify")
        assert code == 2
        assert "re-run derive" in payload["result"]["error"]

    def test_version_2_asks_for_rederive(self, tmp_path, capsys, ledger_doc):
        # a version 2 ledger's digests hash float bits that version 3 no longer
        # keeps, and a version 4 ledger's entries the fields version 5 drops
        for version in (2, 4):
            ledger_doc["result"]["ledger"]["format_version"] = version
            for argv in (["certify"], ["compare", "-p", "r^2"]):
                code, payload = run_on_file(tmp_path, capsys, ledger_doc, *argv)
                assert code == 2
                assert (f"format_version is {version}, not 5; re-run derive"
                        in payload["result"]["error"])

    @pytest.mark.parametrize(
        "doc", [{}, {"entries": 5}, [], 5, {"result": 5}, {"result": {"ledger": []}}]
    )
    def test_non_object_payloads(self, tmp_path, capsys, doc):
        assert run_on_file(tmp_path, capsys, doc, "certify")[0] == 2

    def test_tampered_digest_fails_certify_and_compare(self, tmp_path, capsys, ledger_doc):
        # the digest is of the probes, which compare derives as certify does
        ledger_doc["result"]["ledger"]["digest"] = "f" * 64
        for argv in (["certify"], ["compare", "-p", "r^2"]):
            code, payload = run_on_file(tmp_path, capsys, ledger_doc, *argv)
            assert (code, payload["result"]["error"]) == (2, DIGEST_MISMATCH)
            schema_validator(f"{argv[0]}.schema.json").validate(payload)

    @pytest.mark.parametrize("case", sorted(TAMPERED_FIELDS))
    def test_every_stored_field_is_certified(self, tmp_path, capsys, ledger_doc, case):
        key, value = TAMPERED_FIELDS[case]
        entry = ledger_doc["result"]["ledger"]["entries"][2]
        assert (entry["K"], entry["N"]) == (1, 3) and json.dumps(entry[key]) != json.dumps(value)
        entry[key] = value
        for argv in (["certify"], ["compare", "-p", "r^2"]):
            code, payload = run_on_file(tmp_path, capsys, ledger_doc, *argv)
            assert (code, payload["result"]["error"]) == (2, f"{key} mismatch at K=1, N=3")
            schema_validator(f"{argv[0]}.schema.json").validate(payload)
        del entry[key]
        assert run_on_file(tmp_path, capsys, ledger_doc, "certify")[0] == 2

    @pytest.mark.parametrize("case", sorted(TAMPERED_HEADERS))
    def test_header_is_certified(self, tmp_path, capsys, ledger_doc, case):
        key, value = TAMPERED_HEADERS[case]
        ledger = ledger_doc["result"]["ledger"]
        assert ledger[key] != value
        ledger[key] = value
        for argv in (["certify"], ["compare", "-p", "r^2"]):
            code, payload = run_on_file(tmp_path, capsys, ledger_doc, *argv)
            assert code == 2
            assert payload["result"]["error"] == DIGEST_MISMATCH
            schema_validator(f"{argv[0]}.schema.json").validate(payload)

    def test_optional_and_full_certificate_fields_certify(self, tmp_path, capsys):
        # keys that derive does not write, such as the extra fields of
        # --full-certificates and those format 4 stored, are not compared
        code, doc = run(tmp_path, "derive", "--n-max", "4", "--full-certificates",
                        name="full.json")
        assert code == 0 and "exact_certificate" in doc["result"]["ledger"]["entries"][2]
        for entry in doc["result"]["ledger"]["entries"]:
            entry.update(theta_samples=[], base_kind="sobol", verified=False)
        code, payload = run_on_file(tmp_path, capsys, doc, "certify")
        assert code == 0 and payload["result"]["verified"] is True
        code, payload = run_on_file(tmp_path, capsys, doc, "compare", "-p", "r^2")
        assert code == 0 and payload["result"]["passed"] is True

    def test_truncated_fails_certify_and_compare(self, tmp_path, capsys, ledger_doc):
        ledger = ledger_doc["result"]["ledger"]
        ledger["entries"] = ledger["entries"][:-1]
        for argv in (["certify"], ["compare", "-p", "r^2"]):
            code, payload = run_on_file(tmp_path, capsys, ledger_doc, *argv)
            assert code == 2
            assert "entries" in payload["result"]["error"]

    def test_compare_exits_2_with_json(self, tmp_path, capsys, ledger_doc):
        ledger = ledger_doc["result"]["ledger"]
        ledger["entries"] = ledger["entries"][:3]
        code, payload = run_on_file(tmp_path, capsys, ledger_doc, "compare", "-p", "r^2")
        assert code == 2
        assert payload["result"]["passed"] is False
        schema_validator("compare.schema.json").validate(payload)


def _reordered(doc):
    """The report with its ledger's header keys before its entries."""
    ledger = doc["result"]["ledger"]
    doc["result"]["ledger"] = dict(sorted(ledger.items(), key=lambda item: item[0] == "entries"))
    return json.dumps(doc)


def _duplicate_entries(before: str, value: str):
    """The report with a second "entries" key in its ledger, just before the
    key ``before``."""
    def text(doc):
        head, marker, tail = json.dumps(doc).partition(f'"{before}": ')
        return head + f'"entries": {value}, ' + marker + tail
    return text


def _cut_after_tamper(doc):
    """The report with a tampered value at entry 2, cut off inside the last entry."""
    doc["result"]["ledger"]["entries"][2]["value"]["fraction"] = "2/5"
    text = json.dumps(doc)
    return text[:text.rindex('"value"', 0, text.index('"format_version"'))]


# Each turns a fresh n_max = 4 report into the text of a file, with the exit
# codes of certify and compare: json.load's reading of the text, entry by entry
READER_CASES = {
    "indent-2": (lambda doc: json.dumps(doc, indent=2), 0),
    "header-before-entries": (_reordered, 0),
    "bare-ledger": (lambda doc: json.dumps(doc["result"]["ledger"]), 0),
    # the last of two keys wins
    "duplicate-entries-emptied": (_duplicate_entries("format_version", "[]"), 2),
    "duplicate-entries-restored": (_duplicate_entries("entries", "[5]"), 0),
    "nan-theta-base": (lambda doc: json.dumps(doc).replace(
        '"theta_base": [0.0', '"theta_base": [NaN', 1), 2),
    "trailing-data": (lambda doc: json.dumps(doc) + " {}", 66),
    "trailing-whitespace": (lambda doc: json.dumps(doc) + "\n\r\t ", 0),
    "utf-8-bom": (lambda doc: "\ufeff" + json.dumps(doc), 66),
    "cut-mid-entry-after-tamper": (_cut_after_tamper, 66),
    "crlf-line-ends": (lambda doc: json.dumps(doc, indent=1).replace("\n", "\r\n"), 0),
    # characters of two, three and four bytes in every entry: byte spans are not character spans
    "non-ascii-strings": (lambda doc: json.dumps(doc).replace(
        '"K": ', '"note": "\u00e9\u20ac\U0001d53b", "K": '), 0),
    "bad-utf-8": (lambda doc: json.dumps(doc).replace("bornlab", "born\udcfflab", 1), 66),
}


class TestLedgerReader:
    @pytest.fixture()
    def report(self, tmp_path):
        run(tmp_path, "derive", "--n-max", "4", name="ledger.json")
        return (tmp_path / "ledger.json").read_text()

    @pytest.mark.parametrize("argv", [["certify"], ["compare", "-p", "r^2"]])
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_reads_as_json_load(self, tmp_path, capsys, report, argv, case):
        text, want = READER_CASES[case]
        path = tmp_path / "doc.json"
        path.write_text(text(json.loads(report)), encoding="utf-8", errors="surrogateescape")
        capsys.readouterr()
        assert main([*argv, str(path)]) == want
        out, err = capsys.readouterr()
        if want == 66:  # a syntax error anywhere, before any entry is checked
            assert out == "" and err.count("\n") == 1
        else:
            assert "Traceback" not in err and json.loads(out)

    @pytest.mark.parametrize("argv", [["certify"], ["compare", "-p", "r^2"]])
    @pytest.mark.parametrize("at, bad", [(65_535, b"\xe2\x82"), (100_003, b"\xff")],
                             ids=["across-the-first-piece", "past-the-first-piece"])
    def test_bad_utf_8_error_at_its_offset_in_the_file(self, tmp_path, capsys, argv, at, bad):
        # the file is decoded 64 KiB at a time, but the error is bytes.decode's
        # of the whole file: its offset counts from the start of the file
        run(tmp_path, "derive", "--n-max", "64", name="ledger.json")
        data = (tmp_path / "ledger.json").read_bytes()
        data = data[:at] + bad + data[at + len(bad):]
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as error:
            data.decode("utf-8")
        capsys.readouterr()
        assert main([*argv, str(path)]) == 66
        assert capsys.readouterr() == ("", f"input error: cannot read ledger {str(path)!r}: "
                                           f"{error.value}\n")

    @pytest.mark.parametrize("pad", [0, 600_000])
    def test_parsed_tree_never_held(self, tmp_path, monkeypatch, pad):
        # the text of the file is held while the entries are checked, but not
        # its parsed tree, which json.loads holds at about six times the file:
        # what the read leaves held stays below twice the file, and its peak,
        # the pieces read and their text at once, below 3.5 times, also when
        # whitespace before and after the report outruns the entries
        run(tmp_path, "derive", "--n-max", "160", name="l160.json")
        path = str(tmp_path / "l160.json")
        with open(path, "r+") as handle:
            text = handle.read()
            handle.seek(0)
            handle.write(" " * pad + text + "\n" * pad)
        size, seen, header = os.path.getsize(path), [], derivation._header

        def watched(payload):  # the first step after the read, in certify and compare
            seen.append(tracemalloc.get_traced_memory())
            return header(payload)

        monkeypatch.setattr(derivation, "_header", watched)
        for argv in (["certify"], ["compare", "-p", "r^2"]):
            tracemalloc.start()
            try:
                assert main([*argv, path, "-o", os.devnull]) == 0
            finally:
                tracemalloc.stop()
            held, peak = seen.pop()
            assert size > 500_000 and held < 2 * size and peak < 3.5 * size

    @pytest.mark.parametrize("argv", [["certify"], ["compare", "-p", "r^2"]])
    @pytest.mark.parametrize("rewrite", [lambda text: " " + text, lambda text: text[1:]],
                             ids=["longer", "shorter"])
    def test_file_read_once(self, tmp_path, capsys, monkeypatch, report, argv, rewrite):
        # the stored entries are decoded from the text read before the check:
        # a file rewritten while they are checked changes nothing
        path = tmp_path / "doc.json"
        path.write_text(report)
        capsys.readouterr()
        assert main([*argv, str(path)]) == 0
        want = re.sub(r'"timestamp": "[^"]*"', "", capsys.readouterr().out)
        check = derivation._check_stored

        def rewritten(*args):
            path.write_text(rewrite(report))
            return check(*args)

        monkeypatch.setattr(derivation, "_check_stored", rewritten)
        assert main([*argv, str(path)]) == 0
        out, err = capsys.readouterr()
        assert (re.sub(r'"timestamp": "[^"]*"', "", out), err) == (want, "")

    @pytest.mark.parametrize("argv", [["certify"], ["compare", "-p", "r^2"]])
    def test_fault_after_the_read_is_no_input_error(self, tmp_path, monkeypatch, report, argv):
        # only reading the file is an input error: a fault of the derivation
        # or of the check, once the file is parsed, surfaces as it is
        path = tmp_path / "doc.json"
        path.write_text(report)

        def fault(*args):
            raise ValueError("a fault of the check")

        monkeypatch.setattr(derivation, "_check_stored", fault)
        with pytest.raises(ValueError, match="^a fault of the check$"):
            main([*argv, str(path)])

    def test_one_stored_entry_decoded_at_a_time(self, tmp_path, monkeypatch, report):
        # each stored entry carries a marker key, which the comparison passes over;
        # before each derived entry is compared, count the stored ones alive
        path = tmp_path / "marked.json"
        path.write_text(report.replace('"K": ', '"stored_marker": true, "K": '))
        count = report.count('"K": ')
        alive, derive = [], derivation._stored_json

        def watched(*args):
            for entry in derive(*args):
                alive.append(sum(type(o) is dict and "stored_marker" in o
                                 for o in gc.get_objects()))
                yield entry

        monkeypatch.setattr(derivation, "_stored_json", watched)
        assert main(["certify", str(path), "-o", str(tmp_path / "c.json")]) == 0
        assert main(["compare", "-p", "r^2", str(path), "-o", str(tmp_path / "k.json")]) == 0
        assert len(alive) == 2 * count
        assert max(alive) == 1  # the entry compared last

    @pytest.mark.parametrize("which", [0, 3])
    def test_every_first_window_edge(self, tmp_path, monkeypatch, which):
        # the edge of the first piece read at each byte in turn: inside runs of
        # whitespace and "\r\n", inside numbers such as "1.|0" or "1e|-05", and
        # inside characters of two, three and four bytes: the read and the
        # parse give json.loads' value
        text = ('{"note": "é€\U0001d53b", "spread": 1.0e-05, "scale": -2.5E+3, '
                + _READER_TEXTS[which][1:]).replace(", ", ",\r\n\t ")
        data = text.encode()
        want = _outcome(json.loads, text)
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with open(path, "rb") as handle:
            for piece in range(1, len(data) + 1):
                monkeypatch.setattr(cli, "_PIECE", piece)
                handle.seek(0)
                assert _outcome(lambda _: cli._parse(cli._read_text(handle)), None) == want, piece

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_parse_agrees_with_json_loads(self, data):
        # any mutation of a report's text: the same value, entries listed, or
        # the same error
        text = data.draw(st.sampled_from(_READER_TEXTS), label="text")
        for _ in range(data.draw(st.integers(0, 3), label="edits")):
            at = data.draw(st.integers(0, len(text)), label="at")
            cut = data.draw(st.integers(0, 2), label="cut")
            put = data.draw(st.sampled_from(["", *' \n{}[],:"0-.eEN\\', "NaN", "\ufeff"]))
            text = text[:at] + put + text[at + cut:]
        assert _outcome(cli._parse, text) == _outcome(json.loads, text)


def _listed(value):
    """value with every stored-entries sequence of the reader made a list."""
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, (list, cli._StoredEntries)):
        return [_listed(item) for item in value]
    return value


def _outcome(parse, text):
    try:
        return "value", json.dumps(_listed(parse(text)))
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def _reader_texts():
    doc = {"tool": "bornlab", "config": {"n_max": 2, "theta": [1.5]},
           "result": {"entry_count": 3, "ledger": build_ledger(2).to_json()}}
    texts = [json.dumps(doc), json.dumps(doc, indent=1), json.dumps(doc["result"]["ledger"]),
             '{"result": {"ledger": {"entries": [{"K": 1}, [], 2]}, "ledger": []}, "result": 5}']
    # numbers with exponents, and runs of whitespace with "\r\n" between members
    return texts + [('{"spread": 1.0e-05, "scale": -2.5E+3, ' + texts[which][1:])
                    .replace(", ", ",\r\n\t ") for which in (0, 3)]


_READER_TEXTS = _reader_texts()


class TestFalsify:
    def test_abs_candidate(self, tmp_path):
        code, payload = run(tmp_path, "falsify", "-p", "r", "--n-range", "2..8")
        assert code == 0
        witness = payload["result"]["witness"]
        assert witness["dimension"] == 2
        assert witness["residual"] == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        schema_validator("falsify.schema.json").validate(payload)

    def test_born_all_clear(self, tmp_path):
        code, payload = run(
            tmp_path, "falsify", "-p", "r^2", "--n-range", "2..16",
            "--trials", "5", "--optimizer-steps", "10",
        )
        assert code == 1
        assert payload["result"]["witness"] is None
        assert payload["result"]["probes"]["ledger"] > 0
        schema_validator("falsify.schema.json").validate(payload)

    def test_parse_error(self, tmp_path):
        code, _ = run(tmp_path, "falsify", "-p", "r^^2")
        assert code == 64

    def test_bad_range(self, tmp_path):
        code, _ = run(tmp_path, "falsify", "-p", "r", "--n-range", "zap")
        assert code == 64

    def test_undefined_candidate_writes_strict_json(self, tmp_path):
        out = tmp_path / "f.json"
        code = main(["falsify", "-p", "ln(r)", "--n-range", "2..3", "-o", str(out)])
        payload = strict_json(out.read_text())
        assert code == 0
        assert payload["result"]["witness"]["residual"] == "inf"
        schema_validator("falsify.schema.json").validate(payload)

    def test_orthogonality_witness_evaluates_no_reason(self, tmp_path, monkeypatch):
        # the falsifier reads the orthogonality residual alone: no overlap is
        # evaluated again for the reason of a worst case that no output carries
        calls = []
        eval_expr = dsl.eval_expr
        monkeypatch.setattr(dsl, "eval_expr", lambda *args: calls.append(args) or eval_expr(*args))
        code, payload = run(tmp_path, "falsify", "-p", "ln(r)", "--n-range", "2")
        assert (code, calls) == (0, [])
        e1, e2 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
        assert payload["result"] == {
            "falsified": True,
            "probes": {"ledger": 2, "optimizer": 0, "random": 0},
            "witness": {"axiom": "orthogonality", "basis": [e1, e2], "candidate": "ln(r)",
                        "construction_tag": "LedgerCertificate", "dimension": 2,
                        "residual": "inf", "seed_chain": [0, 1], "state": e1},
        }


    @pytest.mark.parametrize("candidate", ["r^2", "r^2*(1 + 0.1*sin(phi))"])
    def test_same_result_without_deriving_a_certificate(self, tmp_path, monkeypatch, candidate):
        cfg = FalsifierConfig(n_range=(2, 3, 4, 5), random_trials=3, optimizer_steps=5, seed=4)
        ledger = build_ledger(5, [0.5, 4.0], seed=4)
        want = falsify(candidate_from_expression(candidate), cfg, ledger).to_json()

        def refuse(*args):
            raise AssertionError("falsify derived a certificate")

        monkeypatch.setattr(derivation, "certify_specs", refuse)
        code, payload = run(tmp_path, "falsify", "-p", candidate, "--n-range", "2..5",
                            "--trials", "3", "--optimizer-steps", "5", "--theta", "0.5",
                            "--theta", "4.0", "--seed", "4")
        assert code == (0 if want["falsified"] else 1)
        assert payload["result"] == want

    @pytest.mark.parametrize("candidate", ["r^2", "r^4"])
    def test_enumerates_only_the_dimensions_it_probes(self, tmp_path, monkeypatch, candidate):
        cfg = FalsifierConfig(n_range=(3, 7), random_trials=2, optimizer_steps=3, seed=5)
        _, full = ledger_specs(7, [0.5], seed=5)
        want = falsify(candidate_from_expression(candidate), cfg, full).to_json()
        made = []

        def counted(*args, **kwargs):
            thetas, specs = ledger_specs(*args, **kwargs)
            made.extend(zip(specs.ks.tolist(), specs.ns.tolist()))
            return thetas, specs

        monkeypatch.setattr(cli, "ledger_specs", counted)
        code, payload = run(tmp_path, "falsify", "-p", candidate, "--n-range", "7,3",
                            "--trials", "2", "--optimizer-steps", "3", "--theta", "0.5",
                            "--seed", "5")
        assert code == (0 if want["falsified"] else 1)
        assert payload["result"] == want
        assert made == [(k, n) for k, n in zip(full.ks.tolist(), full.ns.tolist())
                        if n in (3, 7) or k == 0]  # P(0) first


# Each must exit 64 with a one-line usage error on stderr.
BAD_FALSIFY_PARAMETERS = {
    "threshold-zero": ["--threshold", "0"],
    "threshold-negative": ["--threshold", "-1e-6"],
    "threshold-inf": ["--threshold", "inf"],
    "threshold-nan": ["--threshold", "nan"],
    "trials-negative": ["--trials", "-1"],
    "optimizer-steps-negative": ["--optimizer-steps", "-1"],
    "step-scale-nan": ["--step-scale", "nan"],
    "step-scale-zero": ["--step-scale", "0"],
    "step-scale-negative": ["--step-scale", "-0.1"],
    "step-scale-above-bound": ["--step-scale", "1e10"],
    "threshold-below-floor": ["--threshold", "1e-300"],
    "threshold-float-noise": ["--threshold", "1e-15"],
    "theta-inf": ["--theta", "inf"],
    "theta-nan": ["--theta", "nan"],
    "theta-overflow": ["--theta", "1e999"],
    "n-range-above-bound": ["--n-range", "2..513"],
    "n-range-huge": ["--n-range", "2..100000000"],
    "n-range-list-above-bound": ["--n-range", "2,600"],
    "trials-above-bound": ["--trials", "1000001"],
    "optimizer-steps-above-bound": ["--optimizer-steps", "1000001"],
    "trials-huge": ["--trials", str(10**18)],
}

# Each must exit 64 with a one-line usage error on stderr.
BAD_VALUES = {
    "derive-theta-nan": ["derive", "--n-max", "3", "--theta", "nan"],
    "derive-theta-inf": ["derive", "--n-max", "3", "--theta", "0", "--theta", "-inf"],
    "derive-theta-text": ["derive", "--n-max", "3", "--theta", "pi"],
    "derive-n-max-above-bound": ["derive", "--n-max", "513"],
    "derive-n-max-huge": ["derive", "--n-max", "100000000"],
    "compare-grid-above-bound": ["compare", "-p", "r^2", "LEDGER", "--grid", "1048577"],
    "compare-grid-huge": ["compare", "-p", "r^2", "LEDGER", "--grid", "100000000"],
    "compare-tolerance-zero": ["compare", "-p", "r^2", "LEDGER", "--tolerance", "0"],
    "compare-tolerance-below-floor": ["compare", "-p", "r^2", "LEDGER", "--tolerance", "1e-13"],
    "compare-tolerance-inf": ["compare", "-p", "r", "LEDGER", "--tolerance", "inf"],
    "compare-tolerance-nan": ["compare", "-p", "r", "LEDGER", "--tolerance", "nan"],
    "derive-full-certificates-above-bound": ["derive", "--n-max", "17", "--full-certificates"],
    "derive-thetas-above-bound": ["derive", "--n-max", "3", *["--theta", "0.5"] * 17],
    "falsify-thetas-above-bound": ["falsify", "-p", "r", "--n-range", "2..3",
                                   *["--theta", "0.5"] * 17],
    "derive-seed-negative": ["derive", "--n-max", "2", "--seed", "-3"],
    "falsify-seed-negative": ["falsify", "-p", "r", "--n-range", "2..3", "--seed", "-1"],
    "simulate-seed-negative": ["simulate", "--fraction", "1/2", "--seed", "-1"],
    "simulate-samples-above-bound": ["simulate", "--fraction", "1/2", "--samples",
                                     "1000000000001"],
    "simulate-samples-huge": ["simulate", "--probs", "1/2,1/2", "--samples", str(10**30)],
    "simulate-probs-above-bound": ["simulate", "--probs", ",".join(["1/513"] * 513)],
}
# candidates past dsl.MAX_NESTING or dsl.MAX_TOKENS: just past each bound, and
# as first found, when each ended in a RecursionError traceback with exit 1
DEEP_CANDIDATES = {
    "parentheses-101": "(" * 101 + "r" + ")" * 101,
    "parentheses-200": "(" * 200 + "r" + ")" * 200,
    "calls-101": "sqrt(" * 101 + "r" + ")" * 101,
    "calls-300": "sqrt(" * 300 + "r" + ")" * 300,
    "minus-101": "-" * 101 + "r",
    "minus-1000": "-" * 1000 + "r",
    "powers-101": "^".join(["r"] * 102),
    "powers-2000": "^".join(["r"] * 2000),
    "sum-501": "+".join(["r"] * 501),
    "sum-1000": "+".join(["r"] * 1000),
}
for _name, _source in DEEP_CANDIDATES.items():
    _flag = f"--candidate={_source}"
    BAD_VALUES[f"falsify-candidate-{_name}"] = ["falsify", _flag, "--n-range", "2"]
    BAD_VALUES[f"compare-candidate-{_name}"] = ["compare", _flag, "LEDGER"]


class TestUsageErrors:
    @pytest.mark.parametrize("case", sorted(BAD_FALSIFY_PARAMETERS))
    def test_falsify_parameter(self, tmp_path, capsys, case):
        argv = ["falsify", "-p", "r^2", "--n-range", "2..3", *BAD_FALSIFY_PARAMETERS[case]]
        assert main(argv + ["-o", str(tmp_path / "out.json")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    def test_negative_threshold_meets_the_floor(self, capsys):
        # read as a value, not as a flag, and refused as a tolerance
        assert main(["falsify", "-p", "r^2", "--n-range", "2", "--threshold", "-1e-6"]) == 64
        assert "'-1e-6' is below the floor" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_refused_at_once(self, tmp_path, capsys, case):
        run(tmp_path, "derive", "--n-max", "3", name="ledger.json")
        argv = [str(tmp_path / "ledger.json") if a == "LEDGER" else a
                for a in BAD_VALUES[case]]
        start = time.perf_counter()
        assert main(argv + ["-o", str(tmp_path / "out.json")]) == 64
        assert time.perf_counter() - start < 2.0  # refused before any work
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_sizes_at_bound_accepted(self, tmp_path):
        from bornlab.cli import (MAX_DIMENSION, MAX_FULL_CERTIFICATES_N, MAX_GRID,
                                 MAX_SAMPLES, MAX_STEPS, MAX_THETAS, MIN_TOLERANCE,
                                 _parse_range)
        from bornlab.falsifier import MAX_STEP_SCALE

        assert (MAX_DIMENSION, MAX_GRID) == (512, 1 << 20)
        assert (MAX_STEPS, MAX_SAMPLES, MAX_THETAS) == (10**6, 10**12, 16)
        assert (MAX_FULL_CERTIFICATES_N, MIN_TOLERANCE, MAX_STEP_SCALE) == (16, 1e-12, 10.0)
        thetas = [str(0.25 * i) for i in range(MAX_THETAS)]
        code, payload = run(tmp_path, "derive", "--n-max", "3",
                            *[a for t in thetas for a in ("--theta", t)], name="thetas.json")
        assert code == 0
        _, specs = derivation.read_specs(payload["result"]["ledger"])
        assert set((specs.offsets[2:] - specs.offsets[1:-1]).tolist()) == {MAX_THETAS + 1}
        schema_validator("ledger.schema.json").validate(payload)
        assert main(["certify", str(tmp_path / "thetas.json"), "-o", str(tmp_path / "c.json")]) == 0
        code, payload = run(tmp_path, "falsify", "-p", "r^2", "--n-range", "2..3", "--trials", "2",
                            "--optimizer-steps", "0", *[a for t in thetas for a in ("--theta", t)])
        assert code == 1 and len(payload["config"]["theta"]) == MAX_THETAS
        code, payload = run(tmp_path, "derive", "--n-max", str(MAX_FULL_CERTIFICATES_N),
                            "--full-certificates", name="full.json")
        assert code == 0
        assert all("basis" in c for e in payload["result"]["ledger"]["entries"][1:]
                   for c in e["certificates"])
        code, payload = run(tmp_path, "falsify", "-p", "r^2", "--n-range", "2..3",
                            "--trials", "2", "--optimizer-steps", "20",
                            "--step-scale", str(MAX_STEP_SCALE), "--threshold", str(MIN_TOLERANCE))
        assert code == 1
        assert payload["result"]["witness"] is None
        assert _parse_range(f"{MAX_DIMENSION - 1}..{MAX_DIMENSION}") == (511, 512)
        run(tmp_path, "derive", "--n-max", "3", name="ledger.json")
        code, payload = run(tmp_path, "compare", "-p", "r^2", str(tmp_path / "ledger.json"),
                            "--grid", str(MAX_GRID), "--tolerance", str(MIN_TOLERANCE))
        assert code == 0
        assert payload["result"]["grid_size"] == MAX_GRID

    def test_non_integer_born_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BORN_SEED", "abc")
        assert main(["falsify", "-p", "r", "--n-range", "2..3"]) == 64
        out, err = capsys.readouterr()
        assert err == "usage error: BORN_SEED must be an integer, got 'abc'\n"
        assert out == ""

    def test_negative_born_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("BORN_SEED", "-4")
        assert main(["derive", "--n-max", "2"]) == 64
        out, err = capsys.readouterr()
        assert err == "usage error: BORN_SEED must be >= 0, got -4\n"
        assert out == ""


# Each names a command that gets as far as writing its output; an output
# path that cannot be written must exit 64 with one line on stderr.
UNWRITABLE_OUTPUT = {
    "derive": ["derive", "--n-max", "1"],
    "simulate-json": ["simulate", "--fraction", "1/2", "--samples", "100"],
    "simulate-csv": ["simulate", "--fraction", "1/2", "--samples", "100", "--format", "csv"],
    "falsify": ["falsify", "-p", "r", "--n-range", "2"],
}


# (argv, the shell redirection of its stdout, the error it must report).
# derive's report, 750 kB, outgrows a pipe's buffer, so it is still being
# written when `head -c 10` exits; `true` exits before simulate's csv is written.
_DERIVE = ["derive", "--n-max", "64"]
_CSV = ["simulate", "--fraction", "1/3", "--samples", "1000", "--format", "csv"]
STDOUT_FAULTS = {
    "derive-head-c-10": (_DERIVE, "| head -c 10 > /dev/null", "Broken pipe"),
    "simulate-csv-reader-gone": (_CSV, "| true", "Broken pipe"),
    "derive-dev-full": (_DERIVE, "> /dev/full", "No space left on device"),
    "simulate-csv-dev-full": (_CSV, "> /dev/full", "No space left on device"),
    "derive-closed": (_DERIVE, ">&-", "it is closed"),
    "simulate-csv-closed": (_CSV, ">&-", "it is closed"),
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUT))
    @pytest.mark.parametrize("target", ["directory", "missing-directory"])
    def test_usage_error(self, tmp_path, capsys, case, target):
        path = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
        assert main(UNWRITABLE_OUTPUT[case] + ["-o", str(path)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: cannot write output ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("case", sorted(STDOUT_FAULTS))
    def test_stdout_that_cannot_be_written(self, case):
        # run by a shell, as a user would; with pipefail the pipeline's code is bornlab's
        argv, redirect, reason = STDOUT_FAULTS[case]
        src = os.path.dirname(os.path.dirname(bornlab.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            ["bash", "-c", f'set -o pipefail; "$@" {redirect}', "bash",
             sys.executable, "-m", "bornlab.cli", *argv],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (64, "")
        assert done.stderr == f"usage error: cannot write output to stdout: {reason}\n"


def test_no_subcommand_imports_scipy(tmp_path):
    # with scipy's entry in sys.modules set to None, any import of it fails;
    # every subcommand must still end with its documented exit code, falsify
    # through all three phases and simulate at 2, 3 and 512 cells
    script = (
        "import os, sys\n"
        "sys.modules['scipy'] = None\n"
        "from bornlab.cli import main\n"
        "ledger, null = os.path.join(sys.argv[1], 'l.json'), os.devnull\n"
        "sim = ['simulate', '--samples', '100000', '--seed', '0', '-o', null]\n"
        "runs = [\n"
        "    (['derive', '--n-max', '4', '--seed', '0', '-o', ledger], 0),\n"
        "    (['certify', ledger, '-o', null], 0),\n"
        "    (['compare', '-p', 'r^2', ledger, '-o', null], 0),\n"
        "    (['falsify', '-p', 'r', '--n-range', '2..4', '--seed', '0', '-o', null], 0),\n"
        "    (['falsify', '-p', 'r^2', '--n-range', '2..4', '--trials', '2',\n"
        "      '--optimizer-steps', '5', '--seed', '0', '-o', null], 1),\n"
        "    (sim + ['--fraction', '2/3'], 0),\n"
        "    (sim + ['--probs', '1/3,1/6,1/2'], 0),\n"
        "    (sim + ['--probs', ','.join(['1/512'] * 512)], 0),\n"
        "    (sim + ['--fraction', '1/3', '--format', 'csv'], 0),\n"
        "]\n"
        "for argv, code in runs:\n"
        "    assert main(argv) == code, argv\n"
        "print(sys.modules['scipy'])\n"
    )
    done = _run_script(script, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"


def test_ledger_commands_import_no_numpy_ma(tmp_path):
    # numpy.ma costs about 1 MB and 9 ms at import, and np.unique imports it;
    # with its entry in sys.modules set to None, any import of it fails
    script = (
        "import os, sys\n"
        "sys.modules['numpy.ma'] = None\n"
        "from bornlab.cli import main\n"
        "ledger, null = os.path.join(sys.argv[1], 'l.json'), os.devnull\n"
        "runs = [\n"
        "    (['derive', '--n-max', '8', '-o', ledger], 0),\n"
        "    (['derive', '--n-max', '4', '--rotate-bases', '--full-certificates', '-o', null], 0),\n"
        "    (['certify', ledger, '-o', null], 0),\n"
        "    (['compare', '-p', 'r^2', ledger, '-o', null], 0),\n"
        "    (['compare', '-p', 'r', ledger, '-o', null], 1),\n"
        "]\n"
        "for argv, code in runs:\n"
        "    assert main(argv) == code, argv\n"
        "print(sys.modules['numpy.ma'])\n"
    )
    done = _run_script(script, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"


def _run_script(script: str, *args):
    """python -c script args, in a fresh process that imports this checkout's bornlab."""
    src = os.path.dirname(os.path.dirname(bornlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True)


class TestSimulate:
    def test_two_thirds(self, tmp_path):
        code, payload = run(
            tmp_path, "simulate", "--fraction", "2/3", "--samples", "1000000",
            "--seed", "1",
        )
        assert code == 0
        assert payload["result"]["passed"]
        schema_validator("simulate.schema.json").validate(payload)

    def test_fraction_one(self, tmp_path):
        code, payload = run(tmp_path, "simulate", "--fraction", "1/1", "--samples", "100")
        assert code == 0
        assert payload["result"]["counts"] == [100]
        assert payload["result"]["chi_square"] == 0.0

    def test_improper_fraction(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--fraction", "3/2")
        assert code == 64

    def test_probs_list(self, tmp_path):
        code, payload = run(
            tmp_path, "simulate", "--probs", "1/4,1/4,1/2", "--samples", "100000"
        )
        assert code == 0
        assert payload["result"]["dimension"] == 3

    def test_probs_at_bound(self, tmp_path, capsys):
        from bornlab.cli import MAX_DIMENSION

        code, payload = run(tmp_path, "simulate", "--probs",
                            ",".join([f"1/{MAX_DIMENSION}"] * MAX_DIMENSION), "--samples", "100000")
        assert code == 0
        assert payload["result"]["dimension"] == MAX_DIMENSION
        schema_validator("simulate.schema.json").validate(payload)
        # one past the bound is refused before any fraction is parsed
        assert main(["simulate", "--probs", ",".join(["x"] * (MAX_DIMENSION + 1))]) == 64
        assert f"at most {MAX_DIMENSION} fractions" in capsys.readouterr().err

    def test_csv_format(self, tmp_path):
        out = tmp_path / "cells.csv"
        code = main(
            ["simulate", "--fraction", "1/2", "--samples", "1000",
             "--format", "csv", "-o", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "cell,expected,observed,z"


class TestCompare:
    @pytest.fixture()
    def ledger_file(self, tmp_path):
        run(tmp_path, "derive", "--n-max", "10", name="ledger.json")
        return str(tmp_path / "ledger.json")

    def test_born_passes(self, tmp_path, ledger_file):
        code, payload = run(tmp_path, "compare", "-p", "r^2", ledger_file)
        assert code == 0
        assert payload["result"]["max_rational_residual"] <= 1e-12
        assert payload["result"]["max_grid_deviation_from_born"] <= 1e-12
        schema_validator("compare.schema.json").validate(payload)

    def test_undefined_candidate_writes_strict_json(self, tmp_path, ledger_file):
        out = tmp_path / "c.json"
        code = main(["compare", "-p", "ln(r)", ledger_file, "-o", str(out)])
        payload = strict_json(out.read_text())
        assert code == 1
        assert payload["result"]["max_rational_residual"] == "inf"
        assert payload["result"]["max_grid_deviation_from_born"] == "inf"
        schema_validator("compare.schema.json").validate(payload)

    def test_abs_candidate_fails(self, tmp_path, ledger_file):
        code, payload = run(
            tmp_path, "compare", "-p", "r", ledger_file, "--grid", "512"
        )
        assert code == 1
        assert payload["result"]["max_rational_residual"] >= 0.2071

    def test_unreadable_ledger(self, tmp_path):
        assert main(["compare", "-p", "r^2", str(tmp_path / "no.json")]) == 66


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "--n-max", "5"],
            ["falsify", "-p", "r", "--n-range", "2..4"],
            ["falsify", "-p", "r^2", "--n-range", "2..3", "--trials", "3",
             "--optimizer-steps", "5"],
            ["simulate", "--fraction", "2/3", "--samples", "100000"],
        ],
    )
    def test_repeat_runs_identical_modulo_timestamp(self, tmp_path, argv):
        code_a, a = run(tmp_path, *argv, name="a.json")
        code_b, b = run(tmp_path, *argv, name="b.json")
        assert code_a == code_b
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_config_echoed(self, tmp_path):
        _, payload = run(tmp_path, "derive", "--n-max", "2", "--seed", "9")
        assert payload["config"]["n_max"] == 2
        assert payload["config"]["seed"] == 9
        assert payload["tool"] == "bornlab"


def test_born_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BORN_SEED", "123")
    _, payload = run(tmp_path, "falsify", "-p", "r", "--n-range", "2..3")
    assert payload["config"]["seed"] == 123


# --- the exit-code contract as a whole -------------------------------------
#
# argv is drawn from the flag grammar: each subcommand with a random subset
# of its flags, each flag taking a valid, out-of-range or malformed value,
# and ledgers drawn from the malformed table above.  The first value of
# each list is valid and drawn about half the time, so that runs get past
# the usage checks.  Sizes stay tiny.

_THETAS = ["0", "1.5", "-7", "-1e-20", "-2.5e0", "1e308", "nan", "inf", "-inf", "1e999", "pi"]
_CANDIDATES = ["r^2", "r", "r^2 + 0.05", "ln(r)", "1/r", "sin(1e999)",
               "(0-1)^(1e999-1e999)", "r^", "", "foo(r)", "(" * 101 + "r" + ")" * 101]
_SEEDS = ["0", "7", "-3", "x"]


def _value(draw, values):
    return draw(st.one_of(st.just(values[0]), st.sampled_from(values)))


_MANY_THETAS = ["--theta", "0.5"] * 17  # one past cli.MAX_THETAS
_MANY_PROBS = ",".join(["1/513"] * 513)  # one past cli.MAX_DIMENSION


def _flags(draw, grammar):
    argv = []
    for flag, values in grammar.items():
        if draw(st.booleans()):
            argv += [flag, _value(draw, values)] if values else [flag]
    return argv


@st.composite
def _cli_argv(draw, ledgers):
    command = draw(st.sampled_from(
        ["derive", "certify", "falsify", "simulate", "compare", "bogus", None]))
    if command is None:
        return []
    argv = [command]
    if command == "derive":
        argv += _flags(draw, {
            "--n-max": ["3", "-1", "0", "1", "17", "513", "x"],
            "--theta": _THETAS,
            "--rotate-bases": None,
            "--full-certificates": None,
            "--seed": _SEEDS,
        })
        argv += draw(st.sampled_from([[], _MANY_THETAS]))
        if "--n-max" not in argv:  # the default, 64, is not tiny
            argv += ["--n-max", "2"]
    elif command == "certify":
        argv.append(_value(draw, ledgers))
    elif command == "falsify":
        argv += ["-p", _value(draw, _CANDIDATES)]
        argv += ["--trials", _value(draw, ["2", "0", "-1", "1000001"])]
        argv += ["--optimizer-steps", _value(draw, ["3", "0", "-1", "1000001"])]
        argv += _flags(draw, {
            "--n-range": ["2..3", "2", "2,3", "3..2", "0..2", "2..513",
                          "2..100000000", "a..b", "1"],
            "--step-scale": ["0.1", "0", "nan", "inf", "1e10"],
            "--threshold": ["1e-6", "0", "-1", "-1e-6", "nan", "inf", "1e-300"],
            "--theta": _THETAS,
            "--seed": _SEEDS,
        })
        argv += draw(st.sampled_from([[], _MANY_THETAS]))
        if "--n-range" not in argv:
            argv += ["--n-range", "2..3"]
    elif command == "simulate":
        argv += _flags(draw, {
            "--fraction": ["2/3", "1/1", "0/1", "3/2", "1/0", "x"],
            "--probs": ["1/4,3/4", "1/2,1/2,0", "1/2", "x", "1/0,1", _MANY_PROBS],
            "--samples": ["1000", "1", "0", "-5", "x", "1000000000001"],
            "--seed": _SEEDS,
            "--format": ["json", "csv", "xml"],
        })
        if "--samples" not in argv:
            argv += ["--samples", "100"]
    elif command == "compare":
        argv += ["-p", _value(draw, _CANDIDATES), _value(draw, ledgers)]
        argv += _flags(draw, {
            "--grid": ["16", "2", "1", "0", "1048577", "100000000", "x"],
            "--tolerance": ["1e-9", "0", "-1", "nan", "inf", "1e-13"],
        })
    if draw(st.integers(0, 7)) == 0:
        # an unknown flag, -o without its value, or -o to a path that cannot be written
        root = os.path.dirname(ledgers[0])
        argv += draw(st.sampled_from(
            [["--bogus"], ["-o"], ["-o", root], ["-o", os.path.join(root, "missing", "x.json")]]))
    return argv


@pytest.fixture(scope="module")
def fuzz_ledgers(tmp_path_factory):
    """Ledger paths: a valid one, each malformed case, a tampered value,
    non-JSON text, each unreadable file, an oversized file, a non-object and
    a missing file."""
    root = tmp_path_factory.mktemp("fuzz")
    run(root, "derive", "--n-max", "3", name="valid.json")
    doc = json.loads((root / "valid.json").read_text())
    cases = dict(MALFORMED_LEDGERS, **{
        "tampered-value": _set(2, "value", {"fraction": "1/3", "decimal": "0.9"}),
    })
    paths = [str(root / "valid.json"), str(root / "missing.json")]
    for name, mutate in cases.items():
        case = json.loads(json.dumps(doc))
        mutate(case["result"]["ledger"])
        (root / f"{name}.json").write_text(json.dumps(case))
        paths.append(str(root / f"{name}.json"))
    for name, text in UNREADABLE_LEDGERS.items():
        (root / f"{name}.json").write_text(text(doc))
        paths.append(str(root / f"{name}.json"))
    paths.append(oversized_ledger(root))
    (root / "text.json").write_text("not json {")
    (root / "list.json").write_text("[1, 2]")
    return paths + [str(root / "text.json"), str(root / "list.json")]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract_fuzz(fuzz_ledgers, data):
    argv = data.draw(_cli_argv(fuzz_ledgers), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 64, 66)
    assert "Traceback" not in err.getvalue()
    if code in (64, 66):
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    elif "csv" not in argv:
        strict_json(out.getvalue())
