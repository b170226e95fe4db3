#!/usr/bin/env bash
# Report public functions and types that nothing outside their own tests
# uses.
#
# Usage: ci/dead_api.sh
#
# Scans every `pub fn` and `pub const fn`, and every `pub struct`,
# `pub enum` and `pub trait`, in the library sources (crates/*/src,
# crates/shims/*/src and src/), skipping items under `#[cfg(test)]`. For
# each one it looks through every tracked .rs file, comments and string
# literals blanked, for a use of the name.
#
# A function is used by a path `::name` (not a module path `::name::`),
# and for a method or associated function by a call `.name(`, for a free
# function by a call `name(` or the bare name passed as a value
# (`(name)`, `, name,` and the like).
#
# A type is used wherever its name appears, except inside its own
# definition, inside the `impl` blocks of the type (`impl Name`,
# `impl Trait for Name`) or, for a trait, of the trait
# (`impl Name for Type`), and on `pub use` lines. A trait is also used
# by a call `.method(` of a method it declares, since a glob import
# (`use rayon::prelude::*`) brings it into scope without naming it.
#
# For both, uses inside `#[cfg(test)]` items of the defining crate and
# inside its tests/ do not count; benches, examples, other crates' tests
# and perfbench/src do. The scan matches names, not paths, so two items
# of one name share their uses.
#
# Prints `path:line name` for each item left without a use that the
# allowlist below does not name. It only reports: it always exits 0 and
# needs nothing but git and perl.
cd "$(dirname "$0")/.." || exit 0

git ls-files -z -- '*.rs' | perl -0 -e '
use strict;
use warnings;

# Items kept although only tests of their own crate use them: path,
# name, and the reason it stays.
my %allow = map { my ($p, $n) = split " "; ("$p $n" => 1) } grep { /\S/ } split /\n/, <<"ALLOW";
crates/baselines/src/helix.rs greedy_flow       test oracle: the helix property tests bound the max flow from below with it
crates/baselines/src/helix.rs net_flow          test oracle: the helix tests check flow conservation with it
crates/lp/src/minmax.rs eval                    test oracle: the min-max unit test evaluates the solved max terms with it
crates/lp/src/simplex.rs LinearProgram          fixture: the simplex unit and property tests pose general LPs to the tableau through it
crates/engine/src/prefix.rs cached_bytes        probe of the per-device byte count the prefix cache keeps
crates/elastic/src/closed_loop.rs throttled     probe of the throttle state the automaton keeps
crates/elastic/src/closed_loop.rs pacing        probe of the pacing state the automaton keeps
crates/elastic/src/closed_loop.rs outstanding_scale_outs  probe of the scale-out count the automaton keeps
crates/kvcache/src/headwise.rs groups_of        probe of the group table the allocator keeps
crates/workload/src/arrivals.rs rate_at         probe of the rate schedule the arrival generator walks
crates/workload/src/arrivals.rs total_duration  probe of the rate schedule the arrival generator walks
crates/elastic/src/controller.rs with_config    fixture: the drain ablation test turns drain_on_notice off with it
crates/elastic/src/policy.rs into_inner         fixture: the elastic tests rewrap a built policy with it
crates/elastic/src/scenario.rs custom           fixture: the elastic tests build churn scenarios with it
crates/elastic/src/churn.rs spot                fixture: the elastic tests build spot classes with it
crates/kvcache/src/headwise.rs can_allocate     allocator API: its unit test checks overflow safety; the benches only allocate
crates/kvcache/src/headwise.rs free_seq         allocator API: the kvcache conservation tests free through it
crates/kvcache/src/headwise.rs sequences        allocator API: the kvcache conservation tests free everything through it
crates/kvcache/src/paged.rs can_allocate        allocator API: its unit test checks the block boundary; the benches only allocate
crates/kvcache/src/paged.rs free_seq            allocator API: the kvcache conservation tests free through it
crates/kvcache/src/paged.rs sequences           allocator API: the paged allocator twin of the headwise one
ALLOW

sub blank { my $s = shift; $s =~ s/[^\n]/ /g; $s }

# Blanks comments, string and char literals, keeping every newline.
sub clean {
    my $t = shift;
    $t =~ s{
        ( //[^\n]*
        | /\*.*?\*/
        | \bb?r(\#*)".*?"\2
        | b?"(?:[^"\\]|\\.)*"
        | b?\x27(?:[^\x27\\\n]|\\u\{[0-9a-fA-F]+\}|\\.)\x27
        )
    }{blank($1)}gsex;
    $t;
}

# Closes the brace that opens at $open; returns the offset after it.
sub close_brace {
    my ($t, $open) = @_;
    my $depth = 0;
    for (my $i = $open; $i < length $t; $i++) {
        my $c = substr($t, $i, 1);
        if ($c eq "{") { $depth++ }
        elsif ($c eq "}") { return $i + 1 if --$depth == 0 }
    }
    length $t;
}

# [start, end) offsets of the outermost items that $re opens: each ends at
# the first `;` or the brace block that follows it.
sub spans {
    my ($t, $re) = @_;
    my @spans;
    while ($t =~ /$re/g) {
        my $start = $-[0];
        my $i = pos($t);
        my ($brace, $semi) = (index($t, "{", $i), index($t, ";", $i));
        last if $brace < 0 && $semi < 0;
        my $end = $semi >= 0 && ($brace < 0 || $semi < $brace)
            ? $semi + 1 : close_brace($t, $brace);
        push @spans, [$start, $end];
        pos($t) = $end;
    }
    \@spans;
}

sub in_spans {
    my ($pos, $spans) = @_;
    for (@$spans) { return 1 if $pos >= $_->[0] && $pos < $_->[1] }
    0;
}

# The type an item-position `impl` block at $at implements, and its
# trait if any: (self type, trait), each the last path segment.
sub impl_names {
    my ($t, $at) = @_;
    my $lead = substr($t, 0, $at);
    $lead =~ s/\s+\z//;
    $lead =~ s/\bunsafe\z//;
    $lead =~ s/\s+\z//;
    return () unless $lead eq "" || $lead =~ /[;{}\]]\z/;
    my $brace = index($t, "{", $at);
    return () if $brace < 0;
    my $head = substr($t, $at + 4, $brace - $at - 4);
    1 while $head =~ s/<[^<>]*>//g;
    $head =~ s/\bwhere\b.*//s;
    $head =~ /\A\s*(?:([\w:]+)\s+for\s+)?&?\s*(?:dyn\s+)?([\w:]+)/ or return ();
    my ($trait, $self) = ($1 // "", $2);
    s/.*:// for $trait, $self;
    ($self, $trait);
}

sub crate_of {
    my $p = shift;
    return $1 if $p =~ m{^(crates/shims/[^/]+)/} || $p =~ m{^(crates/[^/]+)/};
    "";
}

my @files = grep { length } split /\0/, do { local $/; <STDIN> };
my (%text, %tests, %impls, %reexports);
for my $f (@files) {
    open my $fh, "<", $f or next;
    local $/;
    $text{$f} = clean(<$fh>);
    $tests{$f} = spans($text{$f}, qr/#\[cfg\(test\)\]/);
    $impls{$f} = spans($text{$f}, qr/\bimpl\b/);
    $reexports{$f} = spans($text{$f}, qr/\bpub\s+use\b/);
}
my @lib = grep { m{^(?:crates/[^/]+/src|crates/shims/[^/]+/src|src)/} } @files;

# True when a use at $at of $uf counts for an item of crate $crate:
# outside the own tests/ of the crate and its `#[cfg(test)]` items.
sub outside_own_tests {
    my ($crate, $uf, $at) = @_;
    my $own_tests = $crate eq "" ? "tests/" : "$crate/tests/";
    index($uf, $own_tests) != 0
        && !(crate_of($uf) eq $crate && in_spans($at, $tests{$uf}));
}

sub line_of { my ($t, $at) = @_; 1 + (substr($t, 0, $at) =~ tr/\n//) }

# ---- functions ----
# [file, line, name, is a method or associated fn]
my (@defs, %defined);
for my $f (@lib) {
    my $t = $text{$f};
    while ($t =~ /\bpub\s+(?:const\s+)?fn\s+([A-Za-z_]\w*)/g) {
        next if in_spans($-[0], $tests{$f});
        push @defs, [$f, line_of($t, $-[0]), $1, in_spans($-[0], $impls{$f})];
        $defined{$1} = 1;
    }
}

# name -> [file, offset, kind]: "dot" for `.name(`, "path" for `::name`
# and "bare" for a free call or the bare name passed as a value.
my %uses;
for my $f (@files) {
    my $t = $text{$f};
    while ($t =~ /\b([A-Za-z_]\w*)\b/g) {
        next unless $defined{$1};
        my ($name, $s, $e) = ($1, $-[0], $+[0]);
        my $before = substr($t, $s < 16 ? 0 : $s - 16, $s < 16 ? $s : 16);
        my $after = substr($t, $e, 64);
        my $call = $after =~ /\A\s*(?:::\s*<[^()]*?>\s*)?\(/;
        my $kind =
            $before =~ /\bfn\s*\z/ ? undef
            : $before =~ /::\s*\z/ ? ($after =~ /\A\s*::\s*[\w{*]/ ? undef : "path")
            : $before =~ /\.\s*\z/ ? ($call ? "dot" : undef)
            : $call || ($before =~ /[(,]\s*\z/ && $after =~ /\A\s*[,)]/) ? "bare"
            : undef;
        push @{ $uses{$name} }, [$f, $s, $kind] if defined $kind;
    }
}

for my $d (@defs) {
    my ($f, $line, $name, $in_impl) = @$d;
    next if $allow{"$f $name"};
    my $crate = crate_of($f);
    my $used = grep {
        my ($uf, $at, $kind) = @$_;
        $kind ne ($in_impl ? "bare" : "dot") && outside_own_tests($crate, $uf, $at);
    } @{ $uses{$name} || [] };
    print "$f:$line $name\n" unless $used;
}

# ---- types ----
# [file, line, name, definition span]; method name -> its traits
my (@types, %is_type, %trait_of);
for my $f (@lib) {
    my $t = $text{$f};
    my $defs = spans($t, qr/\bpub\s+(?:struct|enum|trait)\s+[A-Za-z_]\w*/);
    for my $span (@$defs) {
        next if in_spans($span->[0], $tests{$f});
        my $def = substr($t, $span->[0], $span->[1] - $span->[0]);
        $def =~ /\A\w+\s+(\w+)\s+(\w+)/;
        my ($kind, $name) = ($1, $2);
        push @types, [$f, line_of($t, $span->[0]), $name, $span];
        $is_type{$name} = 1;
        if ($kind eq "trait") {
            push @{ $trait_of{$1} }, $name while $def =~ /\bfn\s+([A-Za-z_]\w*)/g;
        }
    }
}

# name -> [[file, [start, end]]]: the impl blocks of a type or a trait.
my %impl_of;
for my $f (@files) {
    for my $span (@{ $impls{$f} }) {
        for my $n (grep { length } impl_names($text{$f}, $span->[0])) {
            push @{ $impl_of{$n} }, [$f, $span] if $is_type{$n};
        }
    }
}

my %type_uses;
for my $f (@files) {
    my $t = $text{$f};
    while ($t =~ /\b([A-Za-z_]\w*)\b/g) {
        push @{ $type_uses{$1} }, [$f, $-[0]] if $is_type{$1};
    }
    while ($t =~ /\.\s*([A-Za-z_]\w*)\s*(?:::\s*<[^()]*?>\s*)?\(/g) {
        push @{ $type_uses{$_} }, [$f, $-[1]] for @{ $trait_of{$1} || [] };
    }
}

for my $d (@types) {
    my ($f, $line, $name, $def) = @$d;
    next if $allow{"$f $name"};
    my $crate = crate_of($f);
    my @own = ([$f, $def], @{ $impl_of{$name} || [] });
    my $used = grep {
        my ($uf, $at) = @$_;
        outside_own_tests($crate, $uf, $at)
            && !in_spans($at, $reexports{$uf})
            && !grep { $_->[0] eq $uf && in_spans($at, [$_->[1]]) } @own;
    } @{ $type_uses{$name} || [] };
    print "$f:$line $name\n" unless $used;
}
'
exit 0
