"""Walkthrough of the value-candidate machinery (paper Section IV-B).

Reproduces the paper's motivating examples without any neural model:

* "French students"            -> similarity finds the stored 'France',
* "female"                     -> the gender heuristic proposes 'F',
* "John F Kennedy Intl Airport"-> n-grams + similarity find 'JFK',
* "cardiology"                 -> needs domain knowledge -> *not* found
  (the paper's *hard* class: this is exactly where ValueNet loses
  samples that ValueNet light still solves),
* "top 3"                      -> numbers survive validation unlocated.

Run:  python examples/value_candidates.py
"""

from __future__ import annotations

from repro.db import Database
from repro.preprocessing import Preprocessor
from repro.schema import Column, ColumnType, Schema, Table


def build_demo_database() -> Database:
    airport = Table("airport", (
        Column("airport_id", "airport", ColumnType.NUMBER, is_primary_key=True),
        Column("code", "airport", ColumnType.TEXT),
        Column("city", "airport", ColumnType.TEXT),
    ))
    student = Table("student", (
        Column("stu_id", "student", ColumnType.NUMBER, is_primary_key=True),
        Column("name", "student", ColumnType.TEXT),
        Column("gender", "student", ColumnType.TEXT),
        Column("home_country", "student", ColumnType.TEXT),
    ))
    physician = Table("physician", (
        Column("phys_id", "physician", ColumnType.NUMBER, is_primary_key=True),
        Column("specialty", "physician", ColumnType.TEXT),
    ))
    schema = Schema("demo", [airport, student, physician])
    db = Database.create(schema)
    db.insert_rows("airport", [
        (1, "JFK", "New York"), (2, "LAX", "Los Angeles"), (3, "CDG", "Paris"),
    ])
    db.insert_rows("student", [
        (1, "Ann Miller", "F", "France"),
        (2, "Bob Smith", "M", "Italy"),
        (3, "Eva Novak", "F", "France"),
    ])
    db.insert_rows("physician", [(1, "CARD"), (2, "NEURO")])
    return db


QUESTIONS = [
    "How many French students are there?",
    "List all female students.",
    "Show flights to John F Kennedy International Airport.",
    "Which physicians work in cardiology?",
    "List the top 3 students.",
    "Find students whose name contains 'Mill'.",
]


def main() -> None:
    db = build_demo_database()
    preprocessor = Preprocessor(db)

    for question in QUESTIONS:
        pre = preprocessor.run(question)
        print(f"\nQ: {question}")
        print("  extracted spans: ", [
            f"{s.text!r}({s.kind.value}/{s.source})" for s in pre.extracted
        ])
        if pre.candidates:
            print("  candidates:")
            for candidate in pre.candidates:
                print("    -", candidate.describe())
        else:
            print("  candidates: (none survived validation)")

    print(
        "\nNote how 'cardiology' produced no candidate: the database stores"
        "\nthe code 'CARD', which no string-similarity scan can reach."
        "\nThis is the paper's *hard* value class — the main source of the"
        "\ngap between ValueNet and ValueNet light (Section V-E)."
    )


if __name__ == "__main__":
    main()
