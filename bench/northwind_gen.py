"""Seeded Northwind-shaped dataset generator.

Writes one ``<table>.csv`` per table of ``fixtures/northwind/schema.sql``
(copied in as ``schema.sql``) with row counts at ``multiple`` times the
original Northwind counts. Foreign keys always resolve, every value stays
inside its declared SQL type (SMALLINT ids, VARCHAR lengths, CHAR(5)
customer ids), text carries embedded commas, double quotes and non-ASCII
letters under RFC-4180 quoting, nullable columns are NULL at realistic
shares, and no field holds a line break. The same ``(multiple, seed)``
yields byte-identical files.

Run directly: ``python3 bench/northwind_gen.py --multiple 1 --seed 7 --out DIR``.
"""

from __future__ import annotations

import argparse
import csv
import random
import shutil
from datetime import date, timedelta
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCHEMA = REPO / "fixtures" / "northwind" / "schema.sql"

# Row counts of the original Northwind database. The two demographics
# tables are empty there; small counts are given so that their two
# collections carry data too.
BASE_COUNTS = {
    "categories": 8,
    "customer_demographics": 5,
    "customers": 91,
    "customer_customer_demo": 45,
    "employees": 9,
    "suppliers": 29,
    "products": 77,
    "region": 4,
    "shippers": 3,
    "orders": 830,
    "territories": 53,
    "employee_territories": 49,
    "us_states": 51,
    "order_details": 2155,
}

SMALLINT_MAX = 32767
MAX_MULTIPLE = SMALLINT_MAX // BASE_COUNTS["orders"]  # 39: order_id is SMALLINT
MAX_LINES_PER_ORDER = 5

_SURNAMES = ["Davolio", "Fuller", "Leverling", "Peacock", "Buchanan", "Suyama",
             "King", "Callahan", "Dodsworth", "Müller", "Ångström", "Pérez",
             "O'Brien", "Łukasiewicz", "Nørgaard", "Çelik", "Dubois", "Rossi"]
_FIRST = ["Nancy", "Andrew", "Janet", "Margaret", "Steven", "Michael", "Robert",
          "Laura", "Anne", "José", "Zoë", "Björn", "Renée", "Søren", "Élodie"]
_COMPANY_HEAD = ["Alfreds", "Ana Trujillo", "Antonio Moreno", "Around the Horn",
                 "Berglunds", "Blauer See", "Blondel père et fils",
                 "Bólido", "Bon app'", "Cactus", "Chop-suey", "Comércio Mineiro",
                 "Drachenblut", "Du monde entier", "Ernst", "Familia Arquibaldo",
                 "Folies", "Frankenversand", "Gourmet", "Königlich", "Lehmanns",
                 "Océano Atlántico", "Rattlesnake", "Tortuga", "Wolski"]
_COMPANY_TAIL = ["Futterkiste", "Emparedados y helados", "Taquería",
                 "snabbköp", "Delikatessen", "Comidas preparadas",
                 "Handel", "Lanchonetes", "Essen", "Marktstand",
                 "Canyon Grocery", "Restaurante", "Zajazd", "Ltda.",
                 "Trading, Inc.", "Imports, Ltd.", "\"Gourmet\" Foods"]
_TITLES = ["Sales Representative", "Owner", "Order Administrator",
           "Marketing Manager", "Accounting Manager", "Sales Agent",
           "Purchasing Manager, Export", "Vice President, Sales",
           "Inside Sales Coordinator"]
_COURTESY = ["Ms.", "Mr.", "Mrs.", "Dr."]
_STREETS = ["Obere Str.", "Avda. de la Constitución", "Mataderos", "Hauptstr.",
            "Berguvsvägen", "Forsterstr.", "rue des Bouchers", "C/ Araquil",
            "Fauntleroy Circus", "Rua Orós", "Walserweg", "Åkergatan"]
_PLACES = [  # city, region (None outside the regions it applies to), country
    ("Berlin", None, "Germany"), ("México D.F.", None, "Mexico"),
    ("London", None, "UK"), ("Luleå", None, "Sweden"),
    ("Mannheim", None, "Germany"), ("Strasbourg", None, "France"),
    ("Madrid", None, "Spain"), ("Marseille", None, "France"),
    ("Tsawassen", "BC", "Canada"), ("Buenos Aires", None, "Argentina"),
    ("Bern", None, "Switzerland"), ("São Paulo", "SP", "Brazil"),
    ("Aachen", None, "Germany"), ("Eugene", "OR", "USA"),
    ("Caracas", "DF", "Venezuela"), ("Seattle", "WA", "USA"),
    ("Kirkland", "WA", "USA"), ("Århus", None, "Denmark"),
    ("Genève", None, "Switzerland"), ("Lyon", None, "France"),
    ("Reggio Emilia", None, "Italy"), ("Kraków", None, "Poland"),
    ("Montréal", "Québec", "Canada"), ("Cork", "Co. Cork", "Ireland"),
]
_CATEGORY = [("Beverages", "Soft drinks, coffees, teas, beers, and ales"),
             ("Condiments", "Sweet and savory sauces, relishes, spreads"),
             ("Confections", "Desserts, candies, and sweet breads"),
             ("Dairy Products", "Cheeses"),
             ("Grains/Cereals", "Breads, crackers, pasta, and cereal"),
             ("Meat/Poultry", "Prepared meats"),
             ("Produce", "Dried fruit and bean curd"),
             ("Seafood", "Seaweed and fish")]
_PRODUCTS = ["Chai", "Chang", "Aniseed Syrup", "Chef Anton's Cajun Seasoning",
             "Grandma's Boysenberry Spread", "Uncle Bob's Organic Dried Pears",
             "Northwoods Cranberry Sauce", "Mishi Kobe Niku", "Ikura",
             "Queso Cabrales", "Konbu", "Tofu", "Genen Shouyu", "Pavlova",
             "Alice Mutton", "Carnarvon Tigers", "Teatime Chocolate Biscuits",
             "Sir Rodney's Marmalade", "Gumbär Gummibärchen",
             "Schoggi Schokolade", "Rössle Sauerkraut", "Côte de Blaye",
             "Pâté chinois", "Geitost", "Guaraná Fantástica",
             "Nord-Ost Matjeshering", "Gorgonzola Telino",
             "Mascarpone Fabioli", "Original Frankfurter grüne Soße"]
_UNITS = ["10 boxes x 20 bags", "24 - 12 oz bottles", "12 - 550 ml bottles",
          "48 - 6 oz jars", "36 boxes", "12 - 200 ml jars", "1k pkg.",
          "500 g", "20 - 1 kg tins", "16 kg pkg.", "24 pieces, 2 boxes"]
_REGIONS = ["Eastern", "Western", "Northern", "Southern"]
_TERRITORY_NAMES = ["Westboro", "Bedford", "Georgetow", "Boston", "Cambridge",
                    "Braintree", "Louisville", "Wilton", "Morristown",
                    "Edison", "New York", "Mellvile", "Fairport", "Neward",
                    "Rockville", "Greensboro", "Cary", "Santa Monica",
                    "Menlo Park", "San Francisco", "Phoenix", "Scottsdale"]
_STATES = [("Alabama", "AL", "south"), ("Alaska", "AK", "north"),
           ("Arizona", "AZ", "west"), ("Arkansas", "AR", "south"),
           ("California", "CA", "west"), ("Colorado", "CO", "west"),
           ("Connecticut", "CT", "east"), ("Delaware", "DE", "east"),
           ("District of Columbia", "DC", "east"), ("Florida", "FL", "south"),
           ("Georgia", "GA", "south"), ("Hawaii", "HI", "west"),
           ("Idaho", "ID", "midwest"), ("Illinois", "IL", "midwest")]
_SHIPPERS = ["Speedy Express", "United Package", "Federal Shipping",
             "Båtfrakt, AS", "Envíos \"Rápidos\""]
_NOTES = ["Education includes a BA in psychology, Colorado State University.",
          "Holds a BTS in business, and a diploma from the Institut d'Études.",
          "Fluent in French and German; joined the company as a sales rep.",
          "Completed \"The Art of the Cold Call\", a course at the university."]
_EPOCH = date(1996, 7, 4)


def _pick(rng: random.Random, items: list):
    return items[rng.randrange(len(items))]


def _maybe(rng: random.Random, share_null: float, value):
    return None if rng.random() < share_null else value


def _phone(rng: random.Random) -> str:
    return f"({rng.randrange(100, 1000)}) 555-{rng.randrange(10000):04d}"


def _day(offset: int) -> str:
    return (_EPOCH + timedelta(days=offset)).isoformat()


def _person(rng: random.Random) -> str:
    return f"{_pick(rng, _FIRST)} {_pick(rng, _SURNAMES)}"[:30]


def _company(rng: random.Random) -> str:
    return f"{_pick(rng, _COMPANY_HEAD)} {_pick(rng, _COMPANY_TAIL)}"[:40]


def _address(rng: random.Random) -> str:
    street = f"{_pick(rng, _STREETS)} {rng.randrange(1, 300)}"
    if rng.random() < 0.3:
        street += f", Apt. {rng.randrange(1, 40)}"
    return street


def _customer_code(i: int, offset: int) -> str:
    # Distinct five-letter codes: 7919 is coprime with 26**5.
    n = (offset + i * 7919) % 26 ** 5
    letters = []
    for _ in range(5):
        n, r = divmod(n, 26)
        letters.append(chr(ord("A") + r))
    return "".join(letters)


def _territory_id(i: int) -> str:
    # Distinct five-digit zip-like ids: 7919 is coprime with 100000.
    return f"{(1581 + i * 7919) % 100_000:05d}"


def _place_columns(rng: random.Random) -> list:
    """address, city, region, postal_code, country"""
    city, region, country = _pick(rng, _PLACES)
    postal = _maybe(rng, 0.02, f"{rng.randrange(1000, 100000)}")
    return [_address(rng), city, region, postal, country]


class _Tables:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.counts: dict[str, int] = {}

    def write(self, table: str, header: list[str], rows: list[list]) -> None:
        for row in rows:
            for cell in row:
                if isinstance(cell, str) and ("\n" in cell or "\r" in cell
                                              or cell == ""):
                    raise ValueError(f"{table}: field {cell!r} cannot be written")
        path = self.out_dir / f"{table}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        self.counts[table] = len(rows)


def generate(out_dir: Path | str, multiple: int, seed: int) -> dict[str, int]:
    """Write the dataset into ``out_dir``; returns the row count per table."""
    if not 1 <= multiple <= MAX_MULTIPLE:
        raise ValueError(f"multiple must be within 1..{MAX_MULTIPLE}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(SCHEMA, out_dir / "schema.sql")
    rng = random.Random(seed)
    n = {table: base * multiple for table, base in BASE_COUNTS.items()}
    tables = _Tables(out_dir)

    tables.write("categories",
                 ["category_id", "category_name", "description", "picture"],
                 [[i + 1, _CATEGORY[i % 8][0],
                   _maybe(rng, 0.1, _CATEGORY[i % 8][1]),
                   _maybe(rng, 0.5, f"0x151C2F{rng.getrandbits(64):016X}")]
                  for i in range(n["categories"])])

    tables.write("customer_demographics", ["customer_type_id", "customer_desc"],
                 [[f"D{i + 1:04d}",
                   _maybe(rng, 0.2, f"Segment {i + 1}, {_pick(rng, _PLACES)[2]}")]
                  for i in range(n["customer_demographics"])])

    offset = rng.randrange(26 ** 5)
    customer_ids = [_customer_code(i, offset) for i in range(n["customers"])]
    rows = []
    for cid in customer_ids:
        address, city, region, postal, country = _place_columns(rng)
        rows.append([cid, _company(rng), _maybe(rng, 0.02, _person(rng)),
                     _maybe(rng, 0.02, _pick(rng, _TITLES)), address, city,
                     region, postal, country, _phone(rng),
                     _maybe(rng, 0.3, _phone(rng))])
    tables.write("customers",
                 ["customer_id", "company_name", "contact_name", "contact_title",
                  "address", "city", "region", "postal_code", "country",
                  "phone", "fax"], rows)

    pairs = rng.sample(range(n["customers"] * n["customer_demographics"]),
                       n["customer_customer_demo"])
    tables.write("customer_customer_demo", ["customer_id", "customer_type_id"],
                 [[customer_ids[p // n["customer_demographics"]],
                   f"D{p % n['customer_demographics'] + 1:04d}"]
                  for p in sorted(pairs)])

    rows = []
    for i in range(n["employees"]):
        # Nine-person teams as in the original: one head, reports below it.
        reports_to = None if i % 9 == 0 else (i - i % 9) + 1 + (i % 9 > 4)
        address, city, region, postal, country = _place_columns(rng)
        last = _pick(rng, _SURNAMES)
        rows.append([i + 1, last, _pick(rng, _FIRST), _pick(rng, _TITLES),
                     _pick(rng, _COURTESY), _day(-rng.randrange(8000, 20000)),
                     _day(-rng.randrange(0, 1500)), address, city, region,
                     postal, country, _phone(rng), f"{rng.randrange(10000)}",
                     _maybe(rng, 0.5, f"0x151C2F{rng.getrandbits(64):016X}"),
                     _maybe(rng, 0.1, _pick(rng, _NOTES)), reports_to,
                     _maybe(rng, 0.1, f"http://accweb/employees/{last.lower()}.bmp")])
    tables.write("employees",
                 ["employee_id", "last_name", "first_name", "title",
                  "title_of_courtesy", "birth_date", "hire_date", "address",
                  "city", "region", "postal_code", "country", "home_phone",
                  "extension", "photo", "notes", "reports_to", "photo_path"],
                 rows)

    rows = []
    for i in range(n["suppliers"]):
        address, city, region, postal, country = _place_columns(rng)
        rows.append([i + 1, _company(rng), _person(rng), _pick(rng, _TITLES),
                     address, city, region, postal, country, _phone(rng),
                     _maybe(rng, 0.7, _phone(rng)),
                     _maybe(rng, 0.8, f"#{_company(rng)}#http://shop{i}.example/#")])
    tables.write("suppliers",
                 ["supplier_id", "company_name", "contact_name", "contact_title",
                  "address", "city", "region", "postal_code", "country",
                  "phone", "fax", "homepage"], rows)

    prices = []
    rows = []
    for i in range(n["products"]):
        price = rng.randrange(250, 26350) / 100
        prices.append(price)
        rows.append([i + 1, f"{_pick(rng, _PRODUCTS)} {i + 1}"[:40],
                     rng.randrange(n["suppliers"]) + 1,
                     rng.randrange(n["categories"]) + 1,
                     _pick(rng, _UNITS), f"{price:.2f}", rng.randrange(126),
                     rng.choice([0, 0, 0, 10, 20, 40, 70, 100]),
                     rng.choice([0, 5, 10, 15, 20, 25, 30]),
                     1 if rng.random() < 0.1 else 0])
    tables.write("products",
                 ["product_id", "product_name", "supplier_id", "category_id",
                  "quantity_per_unit", "unit_price", "units_in_stock",
                  "units_on_order", "reorder_level", "discontinued"], rows)

    tables.write("region", ["region_id", "region_description"],
                 [[i + 1, f"{_REGIONS[i % 4]} {i // 4 + 1}" if i >= 4
                   else _REGIONS[i]] for i in range(n["region"])])

    tables.write("shippers", ["shipper_id", "company_name", "phone"],
                 [[i + 1, _SHIPPERS[i % len(_SHIPPERS)], _phone(rng)]
                  for i in range(n["shippers"])])

    territory_ids = [_territory_id(i) for i in range(n["territories"])]
    tables.write("territories",
                 ["territory_id", "territory_description", "region_id"],
                 [[tid, _pick(rng, _TERRITORY_NAMES), rng.randrange(n["region"]) + 1]
                  for tid in territory_ids])

    pairs = rng.sample(range(n["employees"] * n["territories"]),
                       n["employee_territories"])
    tables.write("employee_territories", ["employee_id", "territory_id"],
                 [[p // n["territories"] + 1, territory_ids[p % n["territories"]]]
                  for p in sorted(pairs)])

    tables.write("us_states",
                 ["state_id", "state_name", "state_abbr", "state_region"],
                 [[i + 1, _STATES[i % len(_STATES)][0], _STATES[i % len(_STATES)][1],
                   _maybe(rng, 0.05, _STATES[i % len(_STATES)][2])]
                  for i in range(n["us_states"])])

    rows = []
    for i in range(n["orders"]):
        customer = rng.randrange(n["customers"])
        ordered = i // multiple
        address, city, region, postal, country = _place_columns(rng)
        rows.append([i + 1, customer_ids[customer],
                     rng.randrange(n["employees"]) + 1, _day(ordered),
                     _day(ordered + 28),
                     _maybe(rng, 0.025, _day(ordered + rng.randrange(1, 30))),
                     rng.randrange(n["shippers"]) + 1,
                     f"{rng.randrange(2, 103000) / 100:.2f}", _company(rng),
                     address, city, region, postal, country])
    tables.write("orders",
                 ["order_id", "customer_id", "employee_id", "order_date",
                  "required_date", "shipped_date", "ship_via", "freight",
                  "ship_name", "ship_address", "ship_city", "ship_region",
                  "ship_postal_code", "ship_country"], rows)

    # Each order gets one line plus a share of the remaining lines, at most
    # MAX_LINES_PER_ORDER, so the total is exact.
    extra_slots = MAX_LINES_PER_ORDER - 1
    lines = [1] * n["orders"]
    for slot in rng.sample(range(n["orders"] * extra_slots),
                           n["order_details"] - n["orders"]):
        lines[slot // extra_slots] += 1
    rows = []
    for i, count in enumerate(lines):
        for product in sorted(rng.sample(range(n["products"]), count)):
            rows.append([i + 1, product + 1, f"{prices[product]:.2f}",
                         rng.randrange(1, 131),
                         rng.choice(["0", "0", "0", "0.05", "0.1", "0.15",
                                     "0.2", "0.25"])])
    tables.write("order_details",
                 ["order_id", "product_id", "unit_price", "quantity", "discount"],
                 rows)
    return tables.counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--multiple", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    counts = generate(args.out, args.multiple, args.seed)
    print(f"{sum(counts.values())} rows: {counts}")


if __name__ == "__main__":
    main()
