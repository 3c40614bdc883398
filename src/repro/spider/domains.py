"""Domain catalog for the synthetic Spider-like corpus.

Each domain declares its schema (tables, typed columns, PK/FK structure,
bridge tables), how base data is generated, and the natural-language
metadata the question templates need (entity nouns, per-column phrases,
surface forms).  Sixteen domains are defined; the default split keeps
four for the *unseen* dev set, mirroring Spider's disjoint-database
evaluation.

Value-difficulty mechanisms (paper Section V-A1) are wired through column
*roles*:

* ``category`` with identical surface -> *easy* values,
* ``category`` with plural/case surfaces and ``gender`` -> *medium*,
* ``code`` columns with alias surfaces ("cardiology" -> 'CARD') -> *hard*,
* ``bool`` columns with implicit concepts ("official languages" ->
  IsOfficial = 'T') -> *extra-hard*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.db.database import Database
from repro.errors import DatasetError
from repro.schema.model import Column, ColumnType, ForeignKey, Schema, Table
from repro.spider import pools


@dataclass(frozen=True)
class ColumnSpec:
    """Declarative column description.

    Attributes:
        name: physical column name.
        ctype: logical type.
        role: template role: ``id``/``name``/``category``/``numeric``/
            ``year``/``date``/``code``/``bool``/``gender``/``fk``/``""``.
        nl: natural-language phrase for the column ("age", "home country").
        gen: value generator: ``serial``, ``person``, ``pool``, ``int``,
            ``float``, ``year``, ``date``, ``tf`` or ``fk``.
        pool: value pool for ``pool`` generators.
        low / high: numeric range for ``int``/``float``/``year``.
        surfaces: db value -> NL surface forms differing from the value
            (medium/hard mechanisms); values not listed use themselves.
        concept: for ``bool`` columns, the NL adjective whose truth the
            column stores ("insured", "official", "spicy").
        fk: ``(table, column)`` this column references.
        pk: primary key flag.
        unique_values: force distinct generated values (entity names).
    """

    name: str
    ctype: ColumnType = ColumnType.TEXT
    role: str = ""
    nl: str = ""
    gen: str = "pool"
    pool: tuple[str, ...] = ()
    low: float = 0
    high: float = 100
    surfaces: dict[str, tuple[str, ...]] = field(default_factory=dict)
    concept: str = ""
    fk: tuple[str, str] | None = None
    pk: bool = False
    unique_values: bool = False


@dataclass(frozen=True)
class TableSpec:
    """Declarative table description.

    Attributes:
        name: physical table name.
        singular / plural: entity nouns for question templates.
        synonyms: alternative plural nouns used as paraphrase noise.
        columns: column specs.
        n_rows: how many rows to generate.
        is_bridge: bridge tables never anchor questions themselves.
    """

    name: str
    singular: str
    plural: str
    columns: tuple[ColumnSpec, ...]
    synonyms: tuple[str, ...] = ()
    n_rows: int = 40
    is_bridge: bool = False


@dataclass(frozen=True)
class DomainSpec:
    name: str
    tables: tuple[TableSpec, ...]

    def table(self, name: str) -> TableSpec:
        for table in self.tables:
            if table.name == name:
                return table
        raise DatasetError(f"domain {self.name!r} has no table {name!r}")


# ---------------------------------------------------------------------------
# Spec helpers

def _serial(name: str = "id") -> ColumnSpec:
    return ColumnSpec(name, ColumnType.NUMBER, role="id", gen="serial", pk=True)


def _fk(name: str, table: str, column: str) -> ColumnSpec:
    return ColumnSpec(name, ColumnType.NUMBER, role="fk", gen="fk", fk=(table, column))


def _person(name: str = "name", nl: str = "name") -> ColumnSpec:
    return ColumnSpec(name, role="name", nl=nl, gen="person", unique_values=True)


def _pool_name(name: str, pool: list[str], nl: str = "name") -> ColumnSpec:
    return ColumnSpec(
        name, role="name", nl=nl, gen="pool", pool=tuple(pool), unique_values=True
    )


def _category(
    name: str, pool: list[str], nl: str, surfaces: dict[str, tuple[str, ...]] | None = None
) -> ColumnSpec:
    return ColumnSpec(
        name, role="category", nl=nl, gen="pool", pool=tuple(pool),
        surfaces=surfaces or {},
    )


def _numeric(name: str, nl: str, low: float, high: float, *, is_float: bool = False) -> ColumnSpec:
    return ColumnSpec(
        name, ColumnType.NUMBER, role="numeric", nl=nl,
        gen="float" if is_float else "int", low=low, high=high,
    )


def _year(name: str, nl: str, low: int = 1960, high: int = 2020) -> ColumnSpec:
    return ColumnSpec(name, ColumnType.NUMBER, role="year", nl=nl, gen="year", low=low, high=high)


def _date(name: str, nl: str) -> ColumnSpec:
    return ColumnSpec(name, ColumnType.TIME, role="date", nl=nl, gen="date")


def _gender(name: str = "gender") -> ColumnSpec:
    return ColumnSpec(
        name, role="gender", nl="gender", gen="pool", pool=("F", "M"),
        surfaces={"F": ("female", "women"), "M": ("male", "men")},
    )


def _bool(name: str, concept: str) -> ColumnSpec:
    return ColumnSpec(name, role="bool", nl=concept, gen="tf", concept=concept)


def _code(name: str, code_map: dict[str, str], nl: str) -> ColumnSpec:
    return ColumnSpec(
        name, role="code", nl=nl, gen="pool", pool=tuple(code_map),
        surfaces={code: (surface,) for code, surface in code_map.items()},
    )


# ---------------------------------------------------------------------------
# The sixteen domains

DOMAIN_SPECS: dict[str, DomainSpec] = {}


def _register(spec: DomainSpec) -> None:
    if spec.name in DOMAIN_SPECS:
        raise DatasetError(f"duplicate domain {spec.name!r}")
    DOMAIN_SPECS[spec.name] = spec


_register(DomainSpec("employees", (
    TableSpec("department", "department", "departments", (
        _serial("dept_id"),
        _pool_name("dept_name", pools.DEPARTMENT_NAMES, "department name"),
        _category("city", pools.CITIES[:10], "city"),
        _numeric("budget", "budget", 100, 900),
    ), n_rows=8),
    TableSpec("employee", "employee", "employees", (
        _serial("emp_id"),
        _person(),
        _numeric("salary", "salary", 30000, 120000),
        _numeric("age", "age", 22, 65),
        _gender(),
        _fk("dept_id", "department", "dept_id"),
    ), synonyms=("workers", "staff members"), n_rows=60),
)))

_register(DomainSpec("college", (
    TableSpec("faculty", "faculty member", "faculty members", (
        _serial("fac_id"),
        _person(),
        _category("rank", pools.FACULTY_RANKS, "rank", surfaces={
            "Professor": ("professors",),
            "Lecturer": ("lecturers",),
            "Instructor": ("instructors",),
        }),
        _category("building", ["North Hall", "South Hall", "West Annex", "East Tower"], "building"),
    ), synonyms=("instructors",), n_rows=20),
    TableSpec("course", "course", "courses", (
        _serial("course_id"),
        _pool_name("title", pools.COURSE_TITLES, "title"),
        _numeric("credits", "credits", 1, 12),
        _fk("fac_id", "faculty", "fac_id"),
    ), synonyms=("classes",), n_rows=15),
    TableSpec("student", "student", "students", (
        _serial("stu_id"),
        _person(),
        _category("major", pools.MAJORS, "major", surfaces={
            "Biology": ("biology",), "Physics": ("physics",), "History": ("history",),
        }),
        _numeric("gpa", "GPA", 2, 4, is_float=True),
        _numeric("age", "age", 17, 30),
    ), n_rows=50),
    TableSpec("enrollment", "enrollment", "enrollments", (
        _fk("stu_id", "student", "stu_id"),
        _fk("course_id", "course", "course_id"),
        _numeric("grade", "grade", 1, 6),
    ), n_rows=90, is_bridge=True),
)))

_register(DomainSpec("shops", (
    TableSpec("shop", "shop", "shops", (
        _serial("shop_id"),
        _pool_name("shop_name", pools.RESTAURANT_NAMES, "name"),
        _category("district", pools.DISTRICTS, "district"),
        _year("open_year", "opening year", 1980, 2020),
    ), synonyms=("stores",), n_rows=12),
    TableSpec("product", "product", "products", (
        _serial("prod_id"),
        _pool_name("prod_name", pools.PRODUCT_NAMES, "name"),
        _numeric("price", "price", 5, 500, is_float=True),
        _category("category", pools.PRODUCT_CATEGORIES, "category"),
    ), synonyms=("items", "goods"), n_rows=20),
    TableSpec("stock", "stock record", "stock records", (
        _fk("shop_id", "shop", "shop_id"),
        _fk("prod_id", "product", "prod_id"),
        _numeric("quantity", "quantity", 0, 200),
    ), n_rows=60, is_bridge=True),
)))

_register(DomainSpec("cars", (
    TableSpec("maker", "maker", "makers", (
        _serial("maker_id"),
        _pool_name("maker_name", pools.CAR_MAKERS, "name"),
        _category("country", pools.COUNTRIES[:12], "country"),
    ), synonyms=("manufacturers",), n_rows=10),
    TableSpec("model", "model", "models", (
        _serial("model_id"),
        _pool_name("model_name", pools.CAR_MODELS, "name"),
        _fk("maker_id", "maker", "maker_id"),
    ), n_rows=16),
    TableSpec("car", "car", "cars", (
        _serial("car_id"),
        _fk("model_id", "model", "model_id"),
        _numeric("horsepower", "horsepower", 60, 400),
        _numeric("weight", "weight", 800, 2600),
        _bool("automatic", "automatic"),
        _year("prod_year", "production year", 1990, 2020),
    ), synonyms=("vehicles", "automobiles"), n_rows=50),
)))

_register(DomainSpec("library", (
    TableSpec("author", "author", "authors", (
        _serial("author_id"),
        _person(),
        _category("nationality", pools.COUNTRIES[:14], "nationality"),
    ), synonyms=("writers",), n_rows=18),
    TableSpec("book", "book", "books", (
        _serial("book_id"),
        _pool_name("title", pools.BOOK_TITLES, "title"),
        _fk("author_id", "author", "author_id"),
        _numeric("pages", "pages", 80, 900),
        _year("pub_year", "publication year", 1950, 2021),
        _category("genre", pools.GENRES, "genre"),
    ), n_rows=20),
    TableSpec("member", "member", "members", (
        _serial("member_id"),
        _person(),
        _numeric("age", "age", 10, 80),
    ), synonyms=("readers",), n_rows=30),
    TableSpec("loan", "loan", "loans", (
        _fk("member_id", "member", "member_id"),
        _fk("book_id", "book", "book_id"),
        _date("loan_date", "loan date"),
    ), n_rows=60, is_bridge=True),
)))

_register(DomainSpec("hospital", (
    TableSpec("physician", "physician", "physicians", (
        _serial("phys_id"),
        _person(),
        _code("specialty", pools.SPECIALTY_CODES, "specialty"),
        _numeric("salary", "salary", 60000, 250000),
    ), synonyms=("doctors",), n_rows=20),
    TableSpec("patient", "patient", "patients", (
        _serial("pat_id"),
        _person(),
        _numeric("age", "age", 1, 95),
        _bool("insured", "insured"),
    ), n_rows=50),
    TableSpec("appointment", "appointment", "appointments", (
        _serial("appt_id"),
        _fk("phys_id", "physician", "phys_id"),
        _fk("pat_id", "patient", "pat_id"),
        _date("appt_date", "appointment date"),
    ), n_rows=80, is_bridge=True),
)))

_register(DomainSpec("orchestra", (
    TableSpec("conductor", "conductor", "conductors", (
        _serial("cond_id"),
        _person(),
        _category("nationality", pools.COUNTRIES[:12], "nationality"),
        _year("year_started", "starting year", 1970, 2015),
    ), n_rows=12),
    TableSpec("orchestra", "orchestra", "orchestras", (
        _serial("orch_id"),
        ColumnSpec("orch_name", role="name", nl="name", gen="orchestra_name", unique_values=True),
        _fk("cond_id", "conductor", "cond_id"),
        _year("founded_year", "founding year", 1850, 2000),
        _category("city", pools.CITIES[:12], "city"),
    ), n_rows=14),
    TableSpec("performance", "performance", "performances", (
        _serial("perf_id"),
        _fk("orch_id", "orchestra", "orch_id"),
        _numeric("attendance", "attendance", 200, 3000),
        _date("perf_date", "performance date"),
    ), synonyms=("shows",), n_rows=40),
)))

_register(DomainSpec("climbing", (
    TableSpec("mountain", "mountain", "mountains", (
        _serial("mount_id"),
        _pool_name("mount_name", pools.MOUNTAIN_NAMES, "name"),
        _numeric("height", "height", 1200, 8900),
        _category("country", pools.COUNTRIES[:10], "country"),
    ), synonyms=("peaks",), n_rows=10),
    TableSpec("climber", "climber", "climbers", (
        _serial("climber_id"),
        _person(),
        _category("country", pools.COUNTRIES[:14], "country"),
        _fk("mount_id", "mountain", "mount_id"),
        _numeric("time_minutes", "climbing time", 120, 900),
    ), n_rows=35),
)))

_register(DomainSpec("wines", (
    TableSpec("winery", "winery", "wineries", (
        _serial("winery_id"),
        _pool_name("winery_name", pools.WINERY_NAMES, "name"),
        _category("region", pools.WINE_REGIONS, "region"),
    ), n_rows=8),
    TableSpec("wine", "wine", "wines", (
        _serial("wine_id"),
        ColumnSpec("wine_name", role="name", nl="name", gen="wine_name", unique_values=True),
        _fk("winery_id", "winery", "winery_id"),
        _year("vintage", "vintage year", 1990, 2020),
        _numeric("score", "score", 70, 100),
        _numeric("price", "price", 8, 300, is_float=True),
        _category("grape", pools.WINE_GRAPES, "grape"),
    ), n_rows=36),
)))

_register(DomainSpec("trains", (
    TableSpec("station", "station", "stations", (
        _serial("station_id"),
        ColumnSpec("station_name", role="name", nl="name", gen="station_name", unique_values=True),
        _category("city", pools.CITIES[:14], "city"),
        _numeric("platforms", "number of platforms", 1, 20),
    ), n_rows=14),
    TableSpec("train", "train", "trains", (
        _serial("train_id"),
        _pool_name("train_name", pools.TRAIN_NAMES, "name"),
        _numeric("speed", "maximum speed", 80, 320),
        _category("line", pools.TRAIN_LINES, "line"),
    ), n_rows=12),
    TableSpec("route", "route stop", "route stops", (
        _fk("train_id", "train", "train_id"),
        _fk("station_id", "station", "station_id"),
        _numeric("stop_order", "stop order", 1, 12),
    ), n_rows=48, is_bridge=True),
)))

_register(DomainSpec("movies", (
    TableSpec("director", "director", "directors", (
        _serial("dir_id"),
        _person(),
        _category("country", pools.COUNTRIES[:12], "country"),
    ), synonyms=("filmmakers",), n_rows=14),
    TableSpec("movie", "movie", "movies", (
        _serial("movie_id"),
        _pool_name("title", pools.MOVIE_TITLES, "title"),
        _fk("dir_id", "director", "dir_id"),
        _year("release_year", "release year", 1970, 2021),
        _numeric("rating", "rating", 1, 10, is_float=True),
        _category("genre", pools.MOVIE_GENRES, "genre"),
    ), synonyms=("films",), n_rows=15),
)))

_register(DomainSpec("restaurants", (
    TableSpec("restaurant", "restaurant", "restaurants", (
        _serial("rest_id"),
        _pool_name("rest_name", pools.RESTAURANT_NAMES, "name"),
        _category("cuisine", pools.CUISINES, "cuisine", surfaces={
            "Italian": ("italian",), "Japanese": ("japanese",), "Indian": ("indian",),
        }),
        _category("city", pools.CITIES[:10], "city"),
        _numeric("stars", "star rating", 1, 5),
    ), synonyms=("eateries",), n_rows=12),
    TableSpec("dish", "dish", "dishes", (
        _serial("dish_id"),
        _pool_name("dish_name", pools.DISH_NAMES, "name"),
        _fk("rest_id", "restaurant", "rest_id"),
        _numeric("price", "price", 4, 60, is_float=True),
        _bool("spicy", "spicy"),
    ), synonyms=("meals",), n_rows=32),
)))

# ------------------------------------------------------------- dev domains

_register(DomainSpec("pets", (
    TableSpec("student", "student", "students", (
        _serial("stuid"),
        _person(),
        _numeric("age", "age", 17, 30),
        _gender("sex"),
        _category("home_country", pools.COUNTRIES[:12], "home country", surfaces={
            "France": ("French",), "Germany": ("German",), "Italy": ("Italian",),
            "Spain": ("Spanish",),
        }),
    ), n_rows=40),
    TableSpec("pet", "pet", "pets", (
        _serial("petid"),
        _category("pet_type", pools.PET_TYPES, "type", surfaces={
            "Dog": ("dogs",), "Cat": ("cats",),
        }),
        _bool("vaccinated", "vaccinated"),
        _numeric("pet_age", "age", 1, 16),
        _numeric("weight", "weight", 1, 60, is_float=True),
    ), synonyms=("animals",), n_rows=30),
    TableSpec("has_pet", "ownership", "ownerships", (
        _fk("stuid", "student", "stuid"),
        _fk("petid", "pet", "petid"),
    ), n_rows=35, is_bridge=True),
)))

_register(DomainSpec("flights", (
    TableSpec("airline", "airline", "airlines", (
        _serial("airline_id"),
        _pool_name("airline_name", pools.AIRLINES, "name"),
        _category("country", pools.COUNTRIES[:10], "country"),
    ), synonyms=("carriers",), n_rows=9),
    TableSpec("airport", "airport", "airports", (
        _serial("airport_id"),
        _code("code", pools.AIRPORT_CODES, "code"),
        _category("city", pools.CITIES[:12], "city"),
    ), n_rows=10),
    TableSpec("flight", "flight", "flights", (
        _serial("flight_id"),
        _fk("airline_id", "airline", "airline_id"),
        _fk("airport_id", "airport", "airport_id"),
        _numeric("duration", "duration in hours", 1, 14),
        _date("flight_date", "flight date"),
    ), n_rows=55),
)))

_register(DomainSpec("concerts", (
    TableSpec("stadium", "stadium", "stadiums", (
        _serial("stadium_id"),
        _pool_name("stadium_name", pools.STADIUM_NAMES, "name"),
        _numeric("capacity", "capacity", 2000, 80000),
        _category("city", pools.CITIES[:10], "city"),
    ), synonyms=("venues",), n_rows=8),
    TableSpec("singer", "singer", "singers", (
        _serial("singer_id"),
        _person(),
        _category("country", pools.COUNTRIES[:12], "country"),
        _numeric("age", "age", 18, 70),
    ), synonyms=("artists", "musicians"), n_rows=24),
    TableSpec("concert", "concert", "concerts", (
        _serial("concert_id"),
        _pool_name("concert_name", pools.CONCERT_NAMES, "name"),
        _fk("stadium_id", "stadium", "stadium_id"),
        _fk("singer_id", "singer", "singer_id"),
        _year("concert_year", "year", 2000, 2021),
        _numeric("attendance", "attendance", 500, 60000),
        _bool("sold_out", "sold out"),
    ), n_rows=30),
)))

_register(DomainSpec("world_geo", (
    TableSpec("country", "country", "countries", (
        _serial("country_id"),
        _pool_name("country_name", pools.COUNTRIES, "name"),
        _category("continent", pools.CONTINENTS, "continent"),
        _numeric("population", "population", 1, 1400),
        _numeric("area", "surface area", 10, 17000),
    ), synonyms=("nations",), n_rows=20),
    TableSpec("city", "city", "cities", (
        _serial("city_id"),
        _pool_name("city_name", pools.CITIES, "name"),
        _fk("country_id", "country", "country_id"),
        _numeric("city_population", "population", 1, 40),
    ), n_rows=28),
    TableSpec("language", "language record", "language records", (
        _serial("lang_id"),
        _fk("country_id", "country", "country_id"),
        _category("language", pools.LANGUAGES, "language"),
        _bool("is_official", "official"),
    ), n_rows=40),
)))

DEFAULT_TRAIN_DOMAINS: tuple[str, ...] = (
    "employees", "college", "shops", "cars", "library", "hospital",
    "orchestra", "climbing", "wines", "trains", "movies", "restaurants",
)

DEFAULT_DEV_DOMAINS: tuple[str, ...] = ("pets", "flights", "concerts", "world_geo")


# ---------------------------------------------------------------------------
# Materialization


@dataclass
class DomainInstance:
    """A domain materialized into a schema and deterministic base data."""

    spec: DomainSpec
    schema: Schema
    rows: dict[str, list[tuple]]

    def build_database(self, path: str | None = None) -> Database:
        """Create and populate a SQLite database for this domain."""
        database = Database.create(self.schema, path)
        for table in self.schema.tables:
            database.insert_rows(table.name, self.rows[table.name])
        return database

    def column_values(self, table_name: str, column_name: str) -> list[object]:
        table_spec = self.spec.table(table_name)
        index = [c.name for c in table_spec.columns].index(column_name)
        return [row[index] for row in self.rows[table_name]]


def _column_type(spec: ColumnSpec) -> ColumnType:
    if spec.gen in ("serial", "int", "float", "year", "fk"):
        return ColumnType.NUMBER
    if spec.gen == "date":
        return ColumnType.TIME
    return spec.ctype


def build_schema(spec: DomainSpec) -> Schema:
    """Build the :class:`Schema` for a domain spec."""
    tables = []
    foreign_keys = []
    for table_spec in spec.tables:
        columns = tuple(
            Column(
                name=column.name,
                table=table_spec.name,
                column_type=_column_type(column),
                is_primary_key=column.pk,
            )
            for column in table_spec.columns
        )
        tables.append(Table(name=table_spec.name, columns=columns))
        for column in table_spec.columns:
            if column.fk is not None:
                foreign_keys.append(
                    ForeignKey(table_spec.name, column.name, column.fk[0], column.fk[1])
                )
    return Schema(name=spec.name, tables=list(tables), foreign_keys=foreign_keys)


def _generate_value(
    column: ColumnSpec,
    row_index: int,
    rng: random.Random,
    parent_keys: dict[tuple[str, str], list[object]],
    used: set[object],
) -> object:
    if column.gen == "serial":
        return row_index + 1
    if column.gen == "fk":
        assert column.fk is not None
        return rng.choice(parent_keys[column.fk])
    if column.gen == "person":
        for _attempt in range(50):
            value = f"{rng.choice(pools.FIRST_NAMES)} {rng.choice(pools.LAST_NAMES)}"
            if value not in used:
                return value
        return f"{rng.choice(pools.FIRST_NAMES)} {rng.choice(pools.LAST_NAMES)} {row_index}"
    if column.gen == "pool":
        if column.unique_values:
            available = [v for v in column.pool if v not in used]
            if available:
                return rng.choice(available)
            return f"{rng.choice(column.pool)} {row_index + 1}"
        return rng.choice(column.pool)
    if column.gen == "int":
        return rng.randint(int(column.low), int(column.high))
    if column.gen == "float":
        return round(rng.uniform(column.low, column.high), 1)
    if column.gen == "year":
        return rng.randint(int(column.low), int(column.high))
    if column.gen == "date":
        year = rng.randint(2005, 2021)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        return f"{year:04d}-{month:02d}-{day:02d}"
    if column.gen == "tf":
        return rng.choice(["T", "T", "F"])  # skew so both sides are non-empty
    if column.gen == "orchestra_name":
        city = rng.choice(pools.CITIES)
        kind = rng.choice(["Philharmonic", "Symphony", "Chamber Orchestra"])
        value = f"{city} {kind}"
        return value if value not in used else f"{value} {row_index + 1}"
    if column.gen == "wine_name":
        grape = rng.choice(pools.WINE_GRAPES)
        suffix = rng.choice(["Reserve", "Classic", "Estate", "Grand Cru"])
        value = f"{grape} {suffix}"
        return value if value not in used else f"{value} {row_index + 1}"
    if column.gen == "station_name":
        city = rng.choice(pools.CITIES)
        kind = rng.choice(["Central", "North", "South", "Harbor"])
        value = f"{city} {kind}"
        return value if value not in used else f"{value} {row_index + 1}"
    raise DatasetError(f"unknown generator {column.gen!r}")


def build_domain(name: str, *, seed: int = 0) -> DomainInstance:
    """Materialize a domain: deterministic rows for a given seed."""
    spec = DOMAIN_SPECS.get(name)
    if spec is None:
        raise DatasetError(f"unknown domain {name!r}")
    # zlib.crc32 is a *stable* hash: Python's built-in hash() is randomized
    # per process and would make the corpus irreproducible across runs.
    import zlib

    rng = random.Random((zlib.crc32(name.encode()) & 0xFFFF) * 1000 + seed)
    schema = build_schema(spec)

    rows: dict[str, list[tuple]] = {}
    parent_keys: dict[tuple[str, str], list[object]] = {}
    for table_spec in spec.tables:
        table_rows: list[tuple] = []
        used_per_column: dict[str, set[object]] = {c.name: set() for c in table_spec.columns}
        seen_keys: set[tuple] = set()
        for row_index in range(table_spec.n_rows):
            for _attempt in range(20):
                row = tuple(
                    _generate_value(
                        column, row_index, rng, parent_keys, used_per_column[column.name]
                    )
                    for column in table_spec.columns
                )
                pk_positions = [
                    i for i, c in enumerate(table_spec.columns) if c.pk
                ] or list(range(len(row)))
                key = tuple(row[i] for i in pk_positions)
                if key not in seen_keys:
                    seen_keys.add(key)
                    break
            else:
                continue
            for column, value in zip(table_spec.columns, row):
                used_per_column[column.name].add(value)
            table_rows.append(row)
        rows[table_spec.name] = table_rows
        for i, column in enumerate(table_spec.columns):
            if column.pk:
                parent_keys[(table_spec.name, column.name)] = [
                    row[i] for row in table_rows
                ]
    return DomainInstance(spec=spec, schema=schema, rows=rows)
