"""Seeded tag-soup HTML: malformed markup that reaches the kernel's
structured-parse path (random bytes almost never do).  Shared by the
golden snapshot and the property tests."""

import random

TAG_SOUP_TOKENS = (
    # leaf blocks, upper-case and unclosed variants
    "<p>", "</p>", '<P CLASS="Lead">', "</P>", "<h1>", "</h1>", "<H2 id=intro>", "</h2>",
    "<ul>", "</ul>", "<li>", "</li>", "<pre>", "</pre>", "<math>", "</math>",
    "<figcaption>", "</figcaption>", "<header>", "</header>", "<footer>", "</footer>",
    "<blockquote>", "<div>", "</div>", "<section class='main body'>", "</section>",
    # tables (nested, upper-case, stray cells)
    "<table>", "</table>", "<TABLE border=1>", "<tr>", "</tr>", "<td>", "</td>", "<th>", "</TH>",
    # inline markup, links, pictures, void and self-closing tags
    '<a href="/x">', "</a>", "<A HREF='y'>", "<span>", "</span>", "<b>", "</b>",
    '<img src="a.png" alt="Fig &amp; 1">', "<img alt=chart/>", "<IMG SRC=x>", "<br/>", "<br>", "<hr />",
    # footnotes and boilerplate (blocklisted class/id, dropped subtrees)
    "<small>", "</small>", '<p class="footnote">', '<div class="nav">', "<div id='sidebar'>",
    '<ul class="menu-main">', '<p class="ad">', "<nav>", "</nav>", "<nav/>", "<aside>", "</aside>",
    "<form><input></form>",
    # raw text, comments, declarations
    "<script>var a = '<p>x</p>';</script>", "<SCRIPT type=x>if (a < b) {}</SCRIPT>",
    "<style>p{}</style>", "<style>", "<!-- c <p>hidden</p> -->", "<!--", "<!DOCTYPE html>", "<?xml v='1'?>",
    # lone '<' and quoted '>' inside attributes
    "<", " < ", "a<b", "<3", "</", '<p title="a > b">', "<div data-x='>'>",
    # entities
    "&amp;", "&lt;tag&gt;", "&#39;", "&nbsp;", "&copy;", "&#x41;", "&bogus;", "& ",
    # text, including characters whose lower() changes length
    "alpha", "beta gamma", "Delta epsilon zeta.", "İstanbul", "naïve café",
    "$$x^2$$", "\\[a+b\\]", "`$y$`", "\\frac{1}{2}", "<p>Repeat.</p>" * 5,
    # line breaks and whitespace
    "\n", "\r\n", "\n\n", "  ", "\t",
    # one long line with no newline
    "".join(f'<p>w{k} <a href="#">link</a> tail</p>' for k in range(200)),
)
"""Tokens of the seeded tag-soup corpus (:func:`make_tag_soup`)."""


def make_tag_soup(n_docs: int = 300, seed: int = 42, max_tokens: int = 80) -> list[str]:
    """``n_docs`` malformed HTML documents, each a seeded random run of
    :data:`TAG_SOUP_TOKENS` — the hostile-markup corpus that pins the
    structured-parse path."""
    rng = random.Random(seed)
    return [
        "".join(rng.choice(TAG_SOUP_TOKENS) for _ in range(rng.randrange(max_tokens + 1)))
        for _ in range(n_docs)
    ]
