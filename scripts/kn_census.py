#!/usr/bin/env python3
"""Census of Kiselman's monoid: sizes and longest canonical words.

Two enumeration routes are compared: the Cayley-style closure under right
products, and direct generate-and-filter over all words up to the observed
maximum length plus a two-letter margin.  The direct route tries n^(L+2)
words, about 3.4e12 for n = 6, so it runs only for n <= 5; above that the
closure route is printed alone and the direct column reads "not run".
"""

import argparse

from kiselman.canonical import canonical_words, enumerate_kn

DIRECT_MAX_N = 5


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    print(f"{'n':>3} {'|K_n|':>8} {'max word':>9} {'direct':>8}")
    for n in range(1, args.max_n + 1):
        monoid = enumerate_kn(n)
        longest = monoid.max_word_length
        if n > DIRECT_MAX_N:
            print(f"{n:>3} {len(monoid):>8} {longest:>9} {'not run':>8}")
            continue
        direct = sum(1 for _ in canonical_words(n, longest + 2))
        flag = "" if direct == len(monoid) else "  DISAGREE"
        print(f"{n:>3} {len(monoid):>8} {longest:>9} {direct:>8}{flag}")
        assert direct == len(monoid)


if __name__ == "__main__":
    main()
