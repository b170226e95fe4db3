#!/usr/bin/env bash
# Count the Rust lines a change adds and removes, code apart from
# comments and blank lines.
#
# Usage: ci/net_lines.sh <base> [<rev>]
#
# Diffs every tracked .rs file outside perfbench/ from <base> to <rev>
# (to the working tree when <rev> is left out; new files count once they
# are staged) and sorts each added or removed line into one of three
# kinds: blank (only whitespace), comment (its first non-blank characters
# are `//`, so doc comments too) and code (everything else). Prints the
# lines added, removed and net per kind and in total. `git diff
# --shortstat` counts a deleted comment as deleted code; this does not.
#
# It only reports: it always exits 0 and needs nothing but git and perl.
cd "$(dirname "$0")/.." || exit 0

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: ci/net_lines.sh <base> [<rev>]" >&2
    exit 0
fi

git diff --no-color --no-ext-diff --no-renames -U0 "$@" -- '*.rs' ':(exclude)perfbench' |
    perl -e '
use strict;
use warnings;

my @kinds = qw(code comment blank);
my (%add, %del);
while (my $l = <STDIN>) {
    next if $l =~ /^(?:\+\+\+|---) /;
    next unless $l =~ /^([+-])(.*)$/;
    my ($sign, $text) = ($1, $2);
    my $kind = $text =~ /^\s*$/ ? "blank" : $text =~ m{^\s*//} ? "comment" : "code";
    ($sign eq "+" ? \%add : \%del)->{$kind}++;
}
printf "%-8s %8s %8s %8s\n", "rust", "added", "removed", "net";
my ($ta, $td) = (0, 0);
for my $k (@kinds) {
    my ($a, $d) = ($add{$k} // 0, $del{$k} // 0);
    printf "%-8s %8d %8d %+8d\n", $k, $a, $d, $a - $d;
    ($ta, $td) = ($ta + $a, $td + $d);
}
printf "%-8s %8d %8d %+8d\n", "total", $ta, $td, $ta - $td;
'
exit 0
