#!/usr/bin/env bash
# Report public functions that nothing outside their own tests calls.
#
# Usage: ci/dead_api.sh
#
# Scans every `pub fn` and `pub const fn` in the library sources
# (crates/*/src, crates/shims/*/src and src/), skipping items under
# `#[cfg(test)]`. For each one it looks through every tracked .rs file,
# comments and string literals blanked, for a use of the name: a path
# `::name` (not a module path `::name::`), and for a method or
# associated function a call `.name(`, for a free function a call
# `name(` or the bare name passed as a value (`(name)`, `, name,` and
# the like). Uses inside `#[cfg(test)]` items of the defining crate and
# inside its tests/ do not count; benches, examples, other crates'
# tests and perfbench/src do. The scan matches names, not types, so two
# functions of one name share their uses.
#
# Prints `path:line name` for each function left without a use that the
# allowlist below does not name. It only reports: it always exits 0 and
# needs nothing but git and perl.
cd "$(dirname "$0")/.." || exit 0

git ls-files -z -- '*.rs' | perl -0 -e '
use strict;
use warnings;

# Functions kept although only tests of their own crate call them:
# path, name, and the reason it stays.
my %allow = map { my ($p, $n) = split " "; ("$p $n" => 1) } grep { /\S/ } split /\n/, <<"ALLOW";
crates/baselines/src/helix.rs greedy_flow       test oracle: the helix property tests bound the max flow from below with it
crates/baselines/src/helix.rs net_flow          test oracle: the helix tests check flow conservation with it
crates/lp/src/minmax.rs eval                    test oracle: the min-max unit test evaluates the solved max terms with it
crates/engine/src/prefix.rs cached_bytes        probe of the per-device byte count the prefix cache keeps
crates/elastic/src/closed_loop.rs throttled     probe of the throttle state the automaton keeps
crates/elastic/src/closed_loop.rs pacing        probe of the pacing state the automaton keeps
crates/elastic/src/closed_loop.rs outstanding_scale_outs  probe of the scale-out count the automaton keeps
crates/telemetry/src/ring.rs latest             probe of the ring the telemetry bus writes
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
crates/cluster/src/kernels/dense.rs plus        left for later: deleting it deletes its whole unit test
crates/cluster/src/net/collective.rs all_gather_time  left for later: deleting it deletes its whole unit test
crates/sim-core/src/rng.rs split                left for later: deleting it deletes its whole unit test
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

sub crate_of {
    my $p = shift;
    return $1 if $p =~ m{^(crates/shims/[^/]+)/} || $p =~ m{^(crates/[^/]+)/};
    "";
}

my @files = grep { length } split /\0/, do { local $/; <STDIN> };
my (%text, %tests);
for my $f (@files) {
    open my $fh, "<", $f or next;
    local $/;
    $text{$f} = clean(<$fh>);
    $tests{$f} = spans($text{$f}, qr/#\[cfg\(test\)\]/);
}

# [file, line, name, is a method or associated fn]
my (@defs, %defined);
for my $f (grep { m{^(?:crates/[^/]+/src|crates/shims/[^/]+/src|src)/} } @files) {
    my $t = $text{$f};
    my $impls = spans($t, qr/\bimpl\b/);
    while ($t =~ /\bpub\s+(?:const\s+)?fn\s+([A-Za-z_]\w*)/g) {
        next if in_spans($-[0], $tests{$f});
        my $line = 1 + (substr($t, 0, $-[0]) =~ tr/\n//);
        push @defs, [$f, $line, $1, in_spans($-[0], $impls)];
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
    my $own_tests = $crate eq "" ? "tests/" : "$crate/tests/";
    my $used = grep {
        my ($uf, $at, $kind) = @$_;
        $kind ne ($in_impl ? "bare" : "dot")
            && index($uf, $own_tests) != 0
            && !(crate_of($uf) eq $crate && in_spans($at, $tests{$uf}));
    } @{ $uses{$name} || [] };
    print "$f:$line $name\n" unless $used;
}
'
exit 0
