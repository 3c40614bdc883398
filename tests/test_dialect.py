"""Byte-for-byte lock on the SQLite renderer.

The renderer's output is the SQL the gate checks and SQLite runs, so it
must not drift.  Fifteen golden strings captured from the renderer
*before* it was refactored (pets schema, one per construct: joins,
GROUP BY/HAVING, subqueries, BETWEEN, LIKE, UNION, quote doubling, ...)
pin it, together with the identifier, string, literal and LIMIT forms.
"""

from __future__ import annotations

import pytest

from repro.sql import Literal, parse_sql, quote_string, render_literal, render_sql
from repro.sql.render import _quote_identifier

# (input, legacy output) pairs captured from the pre-refactor renderer.
LEGACY_GOLDENS = [
    ("SELECT name FROM student",
     "SELECT student.name FROM student"),
    ("SELECT DISTINCT pet_type FROM pet",
     "SELECT DISTINCT pet.pet_type FROM pet"),
    ("SELECT count(*) FROM student WHERE age > 20",
     "SELECT COUNT(*) FROM student WHERE student.age > 20"),
    ("SELECT name FROM student WHERE home_country = 'France' AND age < 25",
     "SELECT student.name FROM student WHERE student.home_country = 'France' "
     "AND student.age < 25"),
    ("SELECT T1.name FROM student AS T1 JOIN has_pet AS T2 "
     "ON T1.stuid = T2.stuid JOIN pet AS T3 ON T2.petid = T3.petid "
     "WHERE T3.pet_type = 'Dog'",
     "SELECT T1.name FROM student AS T1 JOIN has_pet AS T2 "
     "ON T1.stuid = T2.stuid JOIN pet AS T3 ON T2.petid = T3.petid "
     "WHERE T3.pet_type = 'Dog'"),
    ("SELECT home_country, count(*) FROM student GROUP BY home_country "
     "HAVING count(*) >= 2",
     "SELECT student.home_country, COUNT(*) FROM student "
     "GROUP BY student.home_country HAVING COUNT(*) >= 2"),
    ("SELECT name FROM student ORDER BY age DESC LIMIT 3",
     "SELECT student.name FROM student ORDER BY student.age DESC LIMIT 3"),
    ("SELECT name FROM student WHERE stuid IN (SELECT stuid FROM has_pet)",
     "SELECT student.name FROM student WHERE student.stuid IN "
     "(SELECT has_pet.stuid FROM has_pet)"),
    ("SELECT name FROM student WHERE age BETWEEN 18 AND 25",
     "SELECT student.name FROM student WHERE student.age BETWEEN 18 AND 25"),
    ("SELECT name FROM student WHERE name LIKE 'A%'",
     "SELECT student.name FROM student WHERE student.name LIKE 'A%'"),
    ("SELECT name FROM student WHERE home_country = 'It''aly'",
     "SELECT student.name FROM student WHERE student.home_country = "
     "'It''aly'"),
    ("SELECT name FROM student UNION SELECT pet_type FROM pet",
     "SELECT student.name FROM student UNION SELECT pet.pet_type FROM pet"),
    ("SELECT avg(weight) FROM pet WHERE pet_age != 3",
     "SELECT AVG(pet.weight) FROM pet WHERE pet.pet_age != 3"),
    ("SELECT name FROM student WHERE age > (SELECT avg(age) FROM student)",
     "SELECT student.name FROM student WHERE student.age > "
     "(SELECT AVG(student.age) FROM student)"),
    ("SELECT count(DISTINCT home_country) FROM student",
     "SELECT COUNT(DISTINCT student.home_country) FROM student"),
]



class TestSqliteByteEquality:
    @pytest.mark.parametrize("sql,golden", LEGACY_GOLDENS,
                             ids=range(len(LEGACY_GOLDENS)))
    def test_golden_matches_legacy_renderer(self, pets_schema, pets_graph,
                                            sql, golden):
        query = parse_sql(sql, pets_schema)
        assert render_sql(query, pets_graph) == golden

    def test_sqlite_identifiers_stay_bare(self):
        # Byte-equality with the legacy renderer depends on this: the
        # parser only produces word identifiers, so SQLite never quotes.
        assert _quote_identifier("order") == "order"
        assert _quote_identifier("name") == "name"
        assert _quote_identifier("home country") == '"home country"'

    def test_boolean_and_null_forms(self):
        assert render_literal(Literal(True)) == "TRUE"
        assert render_literal(Literal(False)) == "FALSE"
        assert render_literal(Literal(None)) == "NULL"

    def test_limit_form(self, pets_schema, pets_graph):
        query = parse_sql("SELECT name FROM student LIMIT 7", pets_schema)
        assert render_sql(query, pets_graph).endswith(" LIMIT 7")


class TestSqliteNulHandling:
    def test_nul_renders_as_blob_cast(self):
        rendered = quote_string("a\x00b")
        assert rendered == "CAST(X'610062' AS TEXT)"

    def test_plain_strings_stay_quoted(self):
        assert quote_string("plain") == "'plain'"
        assert quote_string("It's") == "'It''s'"
        assert quote_string("a\\b") == "'a\\b'"
