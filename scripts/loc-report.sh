#!/usr/bin/env bash
# Size report for PR bodies (ROADMAP aim 2): per unit, the non-test code
# lines under src/, the number of public type items, and — as separate
# columns, so moving code between them shows as a move — the lines inside
# `#[cfg(test)]` items and the lines under tests/, benches/ and examples/.
#
#   scripts/loc-report.sh            # one row per crate, the facade and
#                                    # each vendor/ shim, then totals
#   scripts/loc-report.sh FILE...    # one row per given file + total
#
# A code line is a non-blank line that is not a `//` comment (doc comments
# included). In src/ it counts as `code` unless it lies inside a
# `#[cfg(test)]` item (attribute line included) or in a file declared by a
# `#[cfg(test)] mod name;` line: those count as `cfg-test` (per-file rows
# resolve such declarations across all the given files, so they sum to
# the crate's row). Public types are `code` lines declaring
# `pub struct|enum|trait|type`. Needs only bash and awk.
set -euo pipefail
cd "$(dirname "$0")/.."

test_modules() { # FILE... -> the files that `#[cfg(test)] mod name;` declares
    awk '
        FNR == 1 { pending = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (line ~ /^#\[cfg\(test\)\]/) { pending = 1; next }
            if (pending && line ~ /^#\[/) next
            if (pending && match(line, /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/)) {
                name = line
                sub(/^(pub(\([a-z]+\))? )?mod /, "", name)
                sub(/;.*/, "", name)
                dir = FILENAME
                sub(/[^\/]*$/, "", dir)
                stem = FILENAME
                sub(/^.*\//, "", stem)
                sub(/\.rs$/, "", stem)
                if (stem != "lib" && stem != "main" && stem != "mod") dir = dir stem "/"
                print dir name ".rs"
            }
            pending = 0
        }
    ' "$@" /dev/null
}

count() { # TEST_FILES FILE... -> "<code lines> <public types> <cfg-test lines>"
    local tests=$1
    shift
    awk -v test_files="$tests" '
        BEGIN { n = split(test_files, t, " "); for (i = 1; i <= n; i++) is_test[t[i]] = 1 }
        FNR == 1 { skipping = 0; pending = 0; depth = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (line == "" || line ~ /^\/\//) next
            if (FILENAME in is_test) { test++; next }
            if (skipping) {
                test++
                depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                if (depth <= 0) skipping = 0
                next
            }
            if (line ~ /^#\[cfg\(test\)\]/) { pending = 1; test++; next }
            if (pending) {
                test++
                if (line ~ /^#\[/) next # further attributes of the test item
                pending = 0
                depth = gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                if (depth > 0) skipping = 1
                next
            }
            code++
            if (line ~ /^pub (struct|enum|trait|type) /) types++
        }
        END { printf "%d %d %d\n", code, types, test }
    ' "$@" /dev/null
}

lines() { # DIR -> code lines of every .rs file under DIR (0 if absent)
    if [ -d "$1" ]; then
        find "$1" -name '*.rs' -print0 | xargs -0 -r cat |
            awk '{ sub(/^[ \t]+/, "") } $0 != "" && $0 !~ /^\/\// { n++ } END { print n + 0 }'
    else
        echo 0
    fi
}

format='%-40s %10s %9s %9s %8s %8s %9s\n'
# shellcheck disable=SC2059
printf "$format" unit code-lines pub-types cfg-test tests/ benches/ examples/
declare -A total=()
row() { # LABEL DIR TEST_FILES FILE...
    local label=$1 dir=$2 tests=$3 code types test t b e
    shift 3
    read -r code types test < <(count "$tests" "$@")
    if [ -n "$dir" ]; then
        t=$(lines "$dir/tests") b=$(lines "$dir/benches") e=$(lines "$dir/examples")
    else
        t=0 b=0 e=0
    fi
    # shellcheck disable=SC2059
    printf "$format" "$label" "$code" "$types" "$test" "$t" "$b" "$e"
    total[code]=$((${total[code]:-0} + code))
    total[types]=$((${total[types]:-0} + types))
    total[test]=$((${total[test]:-0} + test))
    total[tests]=$((${total[tests]:-0} + t))
    total[benches]=$((${total[benches]:-0} + b))
    total[examples]=$((${total[examples]:-0} + e))
}

totals() { # LABEL
    # shellcheck disable=SC2059
    printf "$format" "$1" "${total[code]}" "${total[types]}" "${total[test]}" \
        "${total[tests]}" "${total[benches]}" "${total[examples]}"
}
units() { # DIR... -> one row per DIR that has a src/
    local dir files
    for dir in "$@"; do
        [ -d "$dir/src" ] || continue
        mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
        row "${dir%/}" "${dir%/}" "$(test_modules "${files[@]}" | tr '\n' ' ')" "${files[@]}"
    done
}

if [ "$#" -gt 0 ]; then
    tests=$(test_modules "$@" | tr '\n' ' ')
    for file in "$@"; do
        row "$file" "" "$tests" "$file"
    done
    totals total
else
    units crates/*/ .
    totals total
    units vendor/*/
    totals "total with vendor/"
    echo "crates: $(find crates -mindepth 2 -maxdepth 2 -name Cargo.toml | wc -l) under crates/" \
        "(+ the root facade and $(find vendor -mindepth 2 -maxdepth 2 -name Cargo.toml | wc -l) vendor/ shims)"
fi
