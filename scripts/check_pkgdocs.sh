#!/bin/sh
# check_pkgdocs.sh — CI docs gate.
#
# 1. Every package must carry a package doc comment ("// Package <name> ..."
#    for libraries, "// Command <name> ..." for mains) so godoc explains
#    which part of the paper each layer reproduces.
# 2. Every relative inter-document link in the repo's *.md files must
#    resolve to an existing file, so the doc set (README, ARCHITECTURE,
#    DESIGN, FRAGMENTATION, EXPERIMENTS, ...) never drifts into dead links.
# 3. Every repo artifact a reference document names as a backticked bare
#    file name (`BENCH_kernels.json`, `spike_gas.tsv`, ...) must exist, so
#    docs never cite records that were never committed. Placeholders are
#    written with angle brackets (`frame_<n>.tsv`), which this check skips.
#    ROADMAP.md, CHANGES.md and task documents (any file carrying a
#    "- [ ]" checklist) name planned and removed files by design and are
#    exempt.
set -eu

fail=0
for dir in internal/*/ cmd/*/; do
    name=$(basename "$dir")
    if ! grep -rql --include='*.go' -E "^// (Package|Command) $name" "$dir"; then
        echo "undocumented package: $dir (no '// Package $name' doc comment)"
        fail=1
    fi
done

# Markdown link gate: extract [text](target) targets, keep relative ones
# (skip http(s)/mailto and pure #anchors), strip any #fragment, and require
# the file to exist relative to the linking document.
for md in *.md; do
    [ -f "$md" ] || continue
    links=$(grep -o '\[[^]]*\]([^)]*)' "$md" | sed 's/.*](\([^)]*\))/\1/') || true
    for target in $links; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path=${target%%#*}
        [ -n "$path" ] || continue
        if [ ! -e "$(dirname "$md")/$path" ]; then
            echo "dead markdown link: $md -> $target"
            fail=1
        fi
    done
done

# Artifact gate: backticked single-token *.txt/*.json/*.tsv names must
# exist relative to the repo root or to the naming document.
for md in *.md */*.md; do
    [ -f "$md" ] || continue
    case "$md" in
        ROADMAP.md|CHANGES.md) continue ;;
    esac
    if grep -q '^ *- \[[ xX]\] ' "$md"; then
        continue
    fi
    names=$(grep -o '`[A-Za-z0-9_./-]*\.\(txt\|json\|tsv\)`' "$md" | tr -d '`' | sort -u) || true
    for name in $names; do
        if [ ! -e "$name" ] && [ ! -e "$(dirname "$md")/$name" ]; then
            echo "missing artifact: $md names \`$name\`, which does not exist"
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docs gate failed — fix godoc comments / markdown links / artifact names (see ARCHITECTURE.md)"
    exit 1
fi
echo "docs gate: all packages documented, all markdown links resolve, all named artifacts exist"
