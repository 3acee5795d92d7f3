import argparse
import hashlib
import json

import pytest

from tensorgap.cli import build_parser, main
from tensorgap.degeneration import unit_to_w_certificate
from tensorgap.fields import GF, QQ
from tensorgap.io import (
    certificate_to_document,
    load_certificate,
    save_certificate,
    save_tensor,
)
from tensorgap.tensors import pad, unit_tensor, w_tensor


@pytest.fixture
def w3_file(tmp_path):
    path = tmp_path / "w3.json"
    save_tensor(w_tensor(3, (2, 2, 2), QQ), path)
    return path


def test_constant_command(capsys):
    assert main(["constant", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "1.88988" in out and "3/2^(2/3)" in out


def test_classify_command(w3_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["classify", str(w3_file), "--seed", "4", "--out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "w-isomorphic" in out
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "classification"
    assert doc["trichotomy"] == "w-isomorphic"
    assert doc["asymptotic-class"] == "c3"
    assert len(doc["cayley-samples"]) == 8


def test_classify_unit_padded(tmp_path, capsys):
    path = tmp_path / "unit.json"
    save_tensor(pad(unit_tensor(3, 2, QQ), (4, 3, 3)), path)
    assert main(["classify", str(path), "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "restricts-to-unit2" in out


def test_ranks_command(w3_file, capsys):
    assert main(["ranks", str(w3_file)]) == 0
    out = capsys.readouterr().out
    assert "rk(T_{1}) = 2" in out and "rk(T_{3}) = 2" in out


def test_subrank_command_exit_codes(tmp_path, capsys):
    f2 = GF(2)
    w3 = tmp_path / "w3f2.json"
    save_tensor(w_tensor(3, (2, 2, 2), f2), w3)
    unit = tmp_path / "i32f2.json"
    save_tensor(unit_tensor(3, 2, f2), unit)
    assert main(["subrank", str(unit), "--r", "2"]) == 0
    assert "yes" in capsys.readouterr().out
    assert main(["subrank", str(w3), "--r", "2"]) == 1
    assert "no" in capsys.readouterr().out


def test_verify_cert_command(tmp_path, capsys):
    cert = unit_to_w_certificate(3)
    good = tmp_path / "good.json"
    save_certificate(cert, good)
    assert main(["verify-cert", str(good)]) == 0
    assert "accepted" in capsys.readouterr().out

    doc = certificate_to_document(cert)
    doc["target"]["entries"] = [[[0, 0, 0], "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify-cert", str(bad)]) == 1
    assert "rejected" in capsys.readouterr().out


def test_oversized_documents_are_errors_not_rejections(tmp_path, capsys):
    doc = certificate_to_document(unit_to_w_certificate(3))
    doc["source"]["dims"] = [1048576] * 3
    huge = tmp_path / "huge-cert.json"
    huge.write_text(json.dumps(doc))
    assert main(["verify-cert", str(huge)]) == 2
    assert "source.dims" in capsys.readouterr().err

    huge_tensor = tmp_path / "huge.json"
    huge_tensor.write_text(json.dumps(doc["source"]))
    assert main(["ranks", str(huge_tensor)]) == 2
    assert "dims" in capsys.readouterr().err


def test_curve_coefficients_must_be_lists(tmp_path, capsys):
    # a coefficient list given as an int or a string is a format error (exit 2)
    for key, value in (("den-coeffs", 1), ("num-coeffs", "10")):
        doc = certificate_to_document(unit_to_w_certificate(3))
        doc["curves"][0]["entries"][0][key] = value
        path = tmp_path / "bad-coeffs.json"
        path.write_text(json.dumps(doc))
        assert main(["verify-cert", str(path)]) == 2
        assert f"bad-coeffs.json.curves[0].entries[0].{key}: {key} must be a list" in capsys.readouterr().err


def test_make_w_cert_command(tmp_path, capsys):
    src = tmp_path / "unit.json"
    save_tensor(unit_tensor(3, 2, QQ), src)
    out = tmp_path / "cert.json"
    assert main(["make-w-cert", str(src), "--seed", "3", "--out", str(out)]) == 0
    cert = load_certificate(out)
    assert cert.target == w_tensor(3, (2, 2, 2), QQ)
    assert main(["verify-cert", str(out)]) == 0


def test_make_w_cert_negative_result(tmp_path, capsys):
    src = tmp_path / "rank1.json"
    from tensorgap.tensors import Tensor

    save_tensor(Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1}), src)
    out = tmp_path / "cert.json"
    assert main(["make-w-cert", str(src), "--seed", "3", "--out", str(out)]) == 1


def test_census_command(tmp_path, capsys):
    out = tmp_path / "census.tsv"
    assert main(["census", "--p", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# tensorgap-census\tformat=1\tp=2\n")
    assert "# summary" in text
    # reproducibility: identical bytes on a second run
    out2 = tmp_path / "census2.tsv"
    assert main(["census", "--p", "2", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["ranks", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_census_guard_exit_code(tmp_path, capsys):
    assert main(["census", "--p", "5", "--out", str(tmp_path / "x.tsv")]) == 2
    # a modulus that is not prime is refused before any file is written
    for p in ("0", "1"):
        out = tmp_path / f"census{p}.tsv"
        assert main(["census", "--p", p, "--out", str(out)]) == 2
        assert "modulus" in capsys.readouterr().err
        assert not out.exists()


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TENSORGAP_SEED", "123")
    from tensorgap.cli import _default_seed

    assert _default_seed() == 123
    monkeypatch.setenv("TENSORGAP_SEED", "junk")
    assert _default_seed() == 0


# sha256 of command outputs, recorded before tensors and matrices switched to
# raw entries; every text path (tensor documents, witness maps, the census
# hyperdeterminant column) runs through them.
CENSUS_F2_SHA256 = "1887ea3067c804600d7901c7f3e0dfd8a0a6f9bbb6fa0b7c76d23719b2ca083f"
CLASSIFY_REPORT_SHA256 = "5921ccd89efee65327e4b141905dac7e5cd55da973c9c0297b59500619d805a9"


def test_census_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "census.tsv"
    assert main(["census", "--p", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CENSUS_F2_SHA256


def test_classify_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "u.json"
    entries = [[[0, 0, 0], "1"], [[1, 1, 1], "2"], [[0, 2, 1], "-3/2"], [[1, 0, 0], "5"]]
    doc = {"format": 1, "kind": "tensor", "field": "Q", "dims": [2, 3, 2], "entries": entries}
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["classify", str(path), "--seed", "1", "--out", str(out)]) == 0
    assert "unit-witness" in json.loads(out.read_text())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLASSIFY_REPORT_SHA256


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_classify_refuses_fewer_than_one_trial(w3_file, trials, capsys):
    assert main(["classify", str(w3_file), "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "at least one trial" in captured.err
    assert "randomized" not in captured.out


@pytest.fixture
def padded_unit_file(tmp_path):
    # make-w-cert output depends on the seed for this input
    path = tmp_path / "unit332.json"
    save_tensor(pad(unit_tensor(3, 2, QQ), (3, 3, 2)), path)
    return path


def test_env_seed_is_read_on_every_call(padded_unit_file, w3_file, tmp_path, monkeypatch, capsys):
    def run(*argv):
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 0
        data = out.read_bytes()
        out.unlink()
        return data

    make = ("make-w-cert", str(padded_unit_file))
    classify = ("classify", str(w3_file))
    monkeypatch.delenv("TENSORGAP_SEED", raising=False)
    at_zero = run(*make), run(*classify)
    monkeypatch.setenv("TENSORGAP_SEED", "123")
    at_env = run(*make), run(*classify)
    at_flag = run(*make, "--seed", "123"), run(*classify, "--seed", "123")
    assert at_env == at_flag
    assert at_env[0] != at_zero[0] and at_env[1] != at_zero[1]
    # an explicit --seed wins over the environment
    assert (run(*make, "--seed", "0"), run(*classify, "--seed", "0")) == at_zero


def test_parser_survives_usage_errors_and_keeps_no_options(w3_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    assert main(["ranks", str(w3_file)]) == 0

    report = tmp_path / "report.json"
    assert main(["classify", str(w3_file), "--seed", "4", "--trials", "3", "--out", str(report)]) == 0
    first = json.loads(report.read_text())
    assert len(first["cayley-samples"]) == 3
    report.unlink()
    assert main(["constant", "--k", "3"]) == 0
    assert main(["classify", str(w3_file)]) == 0
    assert not report.exists()  # --out did not carry over
    assert main(["classify", str(w3_file), "--out", str(report)]) == 0
    second = json.loads(report.read_text())
    assert len(second["cayley-samples"]) == 8  # nor did --trials
    with pytest.raises(SystemExit):
        main(["ranks", str(w3_file), "--seed", "4"])  # nor does --seed exist for ranks


def test_main_builds_its_parser_once(w3_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["constant", "--k", "3"]) == 0
    after_first = len(built)
    assert main(["ranks", str(w3_file)]) == 0
    assert main(["constant", "--k", "4"]) == 0
    assert len(built) == after_first
    # build_parser itself still hands out a new parser each time
    assert build_parser() is not build_parser()
