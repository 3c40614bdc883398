"""Gazetteer-based entity recognizer: the "commercial NER API" stand-in.

The paper's second extractor is a commercial NER API (Google Cloud Natural
Language).  Offline, we simulate an external general-purpose service with a
gazetteer of *world knowledge* that is independent of any particular
database: countries, large cities, common given names, airlines, weekdays
and months.  Like the real API it (a) is not tuned to the task, so it
recognizes generic entities the database may not contain, and (b) never
sees the training data, so it cannot overfit.
"""

from __future__ import annotations

from repro.ner.types import ExtractedValue, SpanKind
from repro.text.tokenizer import Token, tokenize

COUNTRIES = [
    "france", "germany", "italy", "spain", "portugal", "switzerland",
    "austria", "netherlands", "belgium", "poland", "sweden", "norway",
    "denmark", "finland", "ireland", "greece", "turkey", "russia", "china",
    "japan", "korea", "india", "brazil", "argentina", "mexico", "canada",
    "australia", "egypt", "morocco", "kenya", "nigeria",
    "united states", "united kingdom", "usa", "uk", "new zealand",
    "south africa", "czech republic", "saudi arabia", "vietnam", "thailand",
]

CITIES = [
    "paris", "london", "berlin", "madrid", "rome", "lisbon", "zurich",
    "vienna", "amsterdam", "brussels", "warsaw", "stockholm", "oslo",
    "copenhagen", "helsinki", "dublin", "athens", "istanbul", "moscow",
    "beijing", "tokyo", "seoul", "mumbai", "delhi", "sao paulo",
    "buenos aires", "mexico city", "toronto", "sydney", "cairo", "nairobi",
    "new york", "los angeles", "chicago", "houston", "boston", "seattle",
    "san francisco", "miami", "denver", "atlanta", "dallas", "phoenix",
    "geneva", "munich", "hamburg", "barcelona", "milan", "lyon",
]

GIVEN_NAMES = [
    "james", "mary", "john", "patricia", "robert", "jennifer", "michael",
    "linda", "william", "elizabeth", "david", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen",
    "christopher", "nancy", "daniel", "lisa", "matthew", "betty", "anthony",
    "margaret", "mark", "sandra", "donald", "ashley", "steven", "kimberly",
    "paul", "emily", "andrew", "donna", "joshua", "michelle", "kenneth",
    "dorothy", "kevin", "carol", "brian", "amanda", "george", "melissa",
    "anna", "laura", "alice", "emma", "olivia", "sophia", "lucas", "noah",
    "marco", "pierre", "hans", "ingrid", "yuki", "chen", "elena", "ivan",
]

FAMILY_NAMES = [
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "thomas", "taylor", "moore", "jackson", "martin",
    "lee", "perez", "thompson", "white", "harris", "sanchez", "clark",
    "ramirez", "lewis", "robinson", "walker", "young", "allen", "king",
    "wright", "scott", "torres", "nguyen", "hill", "flores", "green",
    "adams", "nelson", "baker", "hall", "rivera", "campbell", "mitchell",
    "carter", "roberts", "kennedy", "muller", "schmidt", "rossi", "dubois",
]

AIRLINES = [
    "jetblue airways", "delta", "united", "lufthansa", "swiss", "klm",
    "air france", "british airways", "emirates", "qatar airways",
    "singapore airlines", "ryanair", "easyjet", "american airlines",
]

MONTHS = [
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
]

WEEKDAYS = [
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
    "sunday",
]


class GazetteerRecognizer:
    """Dictionary-driven recognizer with longest-match-first span finding."""

    def __init__(self) -> None:
        entries = (
            COUNTRIES + CITIES + GIVEN_NAMES + FAMILY_NAMES + AIRLINES
            + MONTHS + WEEKDAYS
        )
        # phrase (as word tuple) -> kind
        self._phrases: dict[tuple[str, ...], SpanKind] = {}
        for entry in entries:
            words = tuple(entry.lower().split())
            kind = SpanKind.MONTH if entry.lower() in MONTHS else SpanKind.TEXT
            self._phrases[words] = kind
        self._max_len = max((len(p) for p in self._phrases), default=1)

    def extract(
        self, question: str, tokens: list[Token] | None = None
    ) -> list[ExtractedValue]:
        """Longest-match-first scan for gazetteer phrases; ``tokens`` is
        ``tokenize(question)`` when the caller holds it already."""
        if tokens is None:
            tokens = tokenize(question)
        words = [t.lower for t in tokens]
        spans: list[ExtractedValue] = []
        i = 0
        while i < len(tokens):
            matched = False
            for length in range(min(self._max_len, len(tokens) - i), 0, -1):
                phrase = tuple(words[i:i + length])
                kind = self._phrases.get(phrase)
                if kind is not None:
                    first, last = tokens[i], tokens[i + length - 1]
                    spans.append(
                        ExtractedValue(
                            text=question[first.start:last.end],
                            start=first.start,
                            end=last.end,
                            kind=kind,
                            source="gazetteer",
                        )
                    )
                    i += length
                    matched = True
                    break
            if not matched:
                i += 1
        return spans
