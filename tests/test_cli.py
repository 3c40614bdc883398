"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import sqlite3

import pytest

import repro.serving
from repro.__main__ import main
from repro.model import ValueNetModel


@pytest.fixture()
def sqlite_file(tmp_path):
    path = tmp_path / "demo.sqlite"
    connection = sqlite3.connect(path)
    connection.executescript(
        """
        CREATE TABLE city (
            city_id INTEGER PRIMARY KEY,
            city_name VARCHAR(40),
            country VARCHAR(40),
            population INTEGER
        );
        INSERT INTO city VALUES (1, 'Paris', 'France', 21);
        INSERT INTO city VALUES (2, 'Lyon', 'France', 5);
        INSERT INTO city VALUES (3, 'Rome', 'Italy', 28);
        """
    )
    connection.commit()
    connection.close()
    return path


class TestCorpusCommand:
    def test_generates_and_reloads(self, tmp_path, capsys):
        directory = tmp_path / "corpus"
        code = main([
            "corpus", str(directory),
            "--train-per-domain", "5", "--dev-per-domain", "3",
        ])
        assert code == 0
        assert (directory / "train.json").exists()
        assert (directory / "tables.json").exists()
        out = capsys.readouterr().out
        assert "train=" in out


class TestInspectCommand:
    def test_shows_hints_and_candidates(self, sqlite_file, capsys):
        code = main([
            "inspect", "How many cities in France have a population above 10?",
            "--database", str(sqlite_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "France" in out
        assert "AGGREGATION" in out


class TestTranslateCommand:
    def test_missing_model_errors(self, sqlite_file, tmp_path):
        with pytest.raises(Exception):
            main([
                "translate", "How many cities are there?",
                "--database", str(sqlite_file),
                "--model", str(tmp_path / "nonexistent"),
            ])


class TestTrainCommand:
    def test_end_to_end_tiny(self, tmp_path, capsys):
        directory = tmp_path / "corpus"
        main([
            "corpus", str(directory),
            "--train-per-domain", "4", "--dev-per-domain", "2",
        ])
        output = tmp_path / "model"
        code = main([
            "train", str(directory),
            "--output", str(output),
            "--epochs", "1", "--dim", "32", "--mode", "light",
        ])
        assert code == 0
        assert (output / "weights.npz").exists()
        out = capsys.readouterr().out
        assert "final loss" in out
        # "airline" occurs only in a dev database's schema: the vocabulary
        # never saw it, so it reaches the model as subword pieces.
        vocab = ValueNetModel.load(output).vocab
        assert len(vocab.encode_word("airline")) > 1


class TestServeFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--threads", "0"],
            ["--workers", "-1"],
            ["--beam", "0"],
            ["--beam", "9"],
            ["--kb-corpus", "corpus.jsonl"],
            ["--queue-size", "0"],
            ["--queue-size", "-3"],
            ["--per-tenant-depth", "0"],
        ],
        ids=["threads-0", "workers-negative", "beam-0", "beam-9",
             "kb-corpus-without-refresh", "queue-size-0", "queue-size-negative",
             "per-tenant-depth-0"],
    )
    def test_unservable_flags_exit_2_before_binding(
        self, sqlite_file, monkeypatch, capsys, flags
    ):
        def no_bind(*args, **kwargs):
            raise AssertionError("the port was bound")

        monkeypatch.setattr(repro.serving, "ServingServer", no_bind)
        with pytest.raises(SystemExit) as info:
            main(["serve", "--database", str(sqlite_file), "--port", "0", *flags])
        assert info.value.code == 2
        assert flags[0] in capsys.readouterr().err
