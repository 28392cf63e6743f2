#!/usr/bin/env python3
"""Census of Kiselman's monoid: sizes and longest canonical words.

Two enumeration routes are compared: the Froidure-Pin closure under right
products (``enumerate_kn``), and direct generation of every canonical word
up to the observed maximum length plus a two-letter margin
(``canonical_words``, which extends canonical prefixes letter by letter and
filters with ``is_canonical``).
"""

import argparse

from kiselman.canonical import canonical_words, enumerate_kn


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    print(f"{'n':>3} {'|K_n|':>8} {'max word':>9} {'direct':>8}")
    for n in range(1, args.max_n + 1):
        monoid = enumerate_kn(n)
        longest = monoid.max_word_length
        direct = sum(1 for _ in canonical_words(n, longest + 2))
        flag = "" if direct == len(monoid) else "  DISAGREE"
        print(f"{n:>3} {len(monoid):>8} {longest:>9} {direct:>8}{flag}")
        assert direct == len(monoid)


if __name__ == "__main__":
    main()
