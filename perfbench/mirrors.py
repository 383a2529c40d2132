"""Seeded generators for the synthetic site mirrors the benchmark runs on.

Each generator writes the mirror's pages into ``<out>/mirror`` and the
reference classification into ``<out>/reference.txt``, beside the mirror
rather than inside it, so the program under test only ever sees the
generated pages.  The seed picks names, texts, prices and the order in
which structural variants are dealt out; the multiset of variants is
fixed by the shape, so every seed asks the program for the same amount
of work and only the page contents differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

_WORDS = ("amber", "basil", "cedar", "delta", "ember", "fjord", "grove", "harbor",
          "indigo", "juniper", "kestrel", "lagoon", "meadow", "nectar", "orchid",
          "pebble", "quartz", "raven", "saffron", "tundra", "umber", "violet",
          "willow", "yarrow", "zephyr")


@dataclass(frozen=True)
class Mirror:
    """One generated mirror and what a correct run over it must produce."""

    root: Path  # index page handed to the program
    classes: dict[str, list[str]]  # reference classes, all retrieved by a correct run
    pages: int  # pages the loader must retrieve
    dangling: tuple[str, ...]  # link targets that must be reported dangling
    nodes: int  # nodes of the clustered tree
    components: int  # one per tree edge

    @property
    def reference(self) -> Path:
        return self.root.parent.parent / "reference.txt"

    def write_reference(self, prefix: str = "") -> None:
        """Write the reference classification beside the mirror, page ids
        prefixed with ``prefix`` (the root URL when served over HTTP)."""
        lines = [f"{name}: {', '.join(prefix + page for page in sorted(members))}"
                 for name, members in self.classes.items()]
        self.reference.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _text(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def _page(title: str, body: list[str]) -> str:
    return "\n".join(["<html>", "<head>", f"<title>{title}</title>", "</head>", "<body>",
                      *body, "</body>", "</html>", ""])


def _write(mirror: Path, pages: dict[str, str]) -> None:
    for rel, text in pages.items():
        path = mirror / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def catalog(out: Path, seed: int, categories: int, items: int) -> Mirror:
    """Shop mirror: index -> categories -> items -> one cart page per item,
    plus a help page with one dead link.

    Item pages share one template whose detail table holds 1-8 text rows
    and a price row, and whose badge strip holds 1-3 badges.  Repeated
    rows and badges collapse in the page schema, so every item has the
    same MMS token sequence; the raw tag streams used by STS differ in
    both places.
    """
    rng = random.Random(seed)
    mirror = out / "mirror"
    pages: dict[str, str] = {}
    count = categories * items
    # fixed multiset of (rows, badges) variants, dealt out in seeded order
    variants = [(1 + g % 8, 1 + (g // 8) % 3) for g in range(count)]
    rng.shuffle(variants)

    cat_ids = [f"cat-{c:02d}.html" for c in range(categories)]
    item_ids, cart_ids = [], []
    nav = [f'<li><a href="{cat}">{_text(rng, 2)}</a></li>' for cat in cat_ids]
    pages["index.html"] = _page("Store", [
        "<h1>Store</h1>", '<ul class="catnav">', *nav, "</ul>",
        f'<p class="promo">{_text(rng, 8)}</p>',
        '<a class="help" href="help.html">Help</a>',
        f'<div class="footer">{_text(rng, 5)}</div>'])
    pages["help.html"] = _page("Help", [
        "<h1>Help</h1>", '<a class="home" href="index.html">Home</a>',
        *(f"<h2>{_text(rng, 3)}</h2>\n<p>{_text(rng, 20)}</p>" for _ in range(3)),
        '<a class="contact" href="contact.html">Contact</a>'])

    for c, cat in enumerate(cat_ids):
        rows = []
        for i in range(items):
            item = f"items/item-{c:02d}-{i:02d}.html"
            cart = f"cart/add-{c:02d}-{i:02d}.html"
            item_ids.append(item)
            cart_ids.append(cart)
            name = _text(rng, 2)
            price = f"{rng.randint(1, 999)}.{rng.randint(0, 99):02d}"
            rows.append(f'<tr><td><a href="{item}">{name}</a></td><td>{price}</td></tr>')
            detail_rows, badges = variants[c * items + i]
            detail = [f"<tr><th>{_text(rng, 1)}</th><td>{_text(rng, 2)}</td></tr>"
                      for _ in range(detail_rows)]
            detail.append(f"<tr><th>Price</th><td><em>{price}</em></td></tr>")
            pages[item] = _page(name, [
                f"<h1>{name}</h1>", '<a class="home" href="../index.html">Home</a>',
                f'<a class="up" href="../{cat}">Back</a>',
                '<div class="badges">',
                *(f'<span class="badge">{_text(rng, 1)}</span>' for _ in range(badges)),
                "</div>",
                f'<img src="../img/{c}-{i}.gif" alt="{name}">',
                '<table class="detail">', *detail, "</table>",
                f'<p class="blurb">{_text(rng, 12)}</p>',
                f'<form action="../{cart}" method="get">',
                '<input type="submit" value="Add to cart">', "</form>",
                f'<div class="footer">{_text(rng, 5)}</div>'])
            pages[cart] = _page("Cart", [
                "<h1>Cart</h1>", '<a class="home" href="../index.html">Home</a>',
                f'<p class="notice">Added {name} to your cart.</p>',
                '<table class="cart">', "<tr><th>Item</th><th>Qty</th><th>Each</th></tr>",
                f"<tr><td>{name}</td><td>1</td><td>{price}</td></tr>", "</table>",
                f'<a class="continue" href="../{cat}">Continue shopping</a>',
                f'<div class="footer">{_text(rng, 5)}</div>'])
        pages[cat] = _page(_text(rng, 2), [
            f"<h1>{_text(rng, 2)}</h1>", '<a class="home" href="index.html">Home</a>',
            '<table class="items">', "<tr><th>Item</th><th>Price</th></tr>", *rows, "</table>",
            f'<div class="footer">{_text(rng, 5)}</div>'])

    _write(mirror, pages)
    classes = {"Home": ["index.html"], "Categories": cat_ids, "Items": item_ids,
               "Carts": cart_ids, "Help": ["help.html"]}
    result = Mirror(mirror / "index.html", classes, pages=len(pages),
                    dangling=("contact.html",), nodes=5, components=4)
    result.write_reference()
    return result


# per-section markup, distinct enough that no two sections share a cluster
_SECTION_STYLES = (("div", "span", "class"), ("section", "b", "title"),
                   ("article", "em", "lang"), ("aside", "code", "dir"))


def longpage(out: Path, seed: int, sections: int, rows: int) -> Mirror:
    """Long-page mirror: index -> long table sections -> one edit page each.

    An edit page repeats its section's table with an input cell added to
    every 7th row, and adds a banner above and a footer below,
    so the one-sided diff from section to edit page cannot trim the
    table away and must align it line by line.
    """
    if sections > len(_SECTION_STYLES):
        raise ValueError(f"at most {len(_SECTION_STYLES)} sections")
    rng = random.Random(seed)
    mirror = out / "mirror"
    pages: dict[str, str] = {}
    sec_ids = [f"section-{s}.html" for s in range(sections)]
    edit_ids = [f"edit/edit-{s}.html" for s in range(sections)]
    pages["index.html"] = _page("Records", [
        "<h1>Records</h1>", '<ul class="sections">',
        *(f'<li><a href="{sec}">{_text(rng, 2)}</a></li>' for sec in sec_ids), "</ul>",
        f'<div class="footer">{_text(rng, 5)}</div>'])

    for s, (sec, edit) in enumerate(zip(sec_ids, edit_ids)):
        wrapper, tag, attr = _SECTION_STYLES[s]
        cells = [(f"{rng.randint(1, 99999)}", _text(rng, 2)) for _ in range(rows)]

        def table(editable: bool) -> list[str]:
            out_rows = [f"<{wrapper}>", f'<table class="t{s}">', f"<tr><th>Key</th><th>{tag}</th></tr>"]
            for r, (key, value) in enumerate(cells):
                extra = (f'<td><input type="text" name="r{r}" value="{key}"></td>'
                         if editable and r % 7 == 6 else "")
                out_rows.append(f'<tr {attr}="r{r % 3}"><td>{key}</td>'
                                f"<td><{tag}>{value}</{tag}></td>{extra}</tr>")
            out_rows.extend(["</table>", f"</{wrapper}>"])
            return out_rows

        pages[sec] = _page(f"Section {s}", [
            f"<h1>Section {s}</h1>", '<a class="home" href="index.html">Home</a>',
            f'<a class="edit" href="{edit}">Edit</a>', *table(False),
            f'<div class="footer">{_text(rng, 5)}</div>'])
        pages[edit] = _page(f"Edit {s}", [
            f'<div class="banner"><p>{_text(rng, 6)}</p><a href="../{sec}">Cancel</a></div>',
            f"<h1>Section {s}</h1>", '<a class="home" href="../index.html">Home</a>',
            f'<form action="../{sec}" method="get">', *table(True),
            '<div class="actions"><input type="submit" value="Save">'
            '<input type="reset" value="Reset"></div>', "</form>",
            f'<div class="footer">{_text(rng, 5)}</div>'])

    _write(mirror, pages)
    classes = {"Home": ["index.html"]}
    classes.update({f"Section{s}": [sec] for s, sec in enumerate(sec_ids)})
    classes.update({f"Edit{s}": [edit] for s, edit in enumerate(edit_ids)})
    result = Mirror(mirror / "index.html", classes, pages=len(pages), dangling=(),
                    nodes=1 + 2 * sections, components=2 * sections)
    result.write_reference()
    return result
