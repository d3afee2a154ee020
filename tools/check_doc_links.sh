#!/usr/bin/env bash
# Verify that every local markdown link in README.md and docs/*.md points at
# a file that exists, so docs cross-references cannot rot. External (http)
# links and pure #anchors are skipped. Then check that every markdown file
# cited from the code trees (src/ bench/ tools/ tests/: comments, docstrings
# and help text) exists: a citation resolves when some tracked .md file has
# that basename. Run from the repository root.
#
# usage: check_doc_links.sh [FILE ...]   (default: README.md docs/*.md)
set -euo pipefail

FILES=("$@")
if [[ ${#FILES[@]} -eq 0 ]]; then
  FILES=(README.md docs/*.md)
fi

fail=0
for file in "${FILES[@]}"; do
  dir=$(dirname "$file")
  # Inline links: [text](target). Good enough for our docs; reference-style
  # links are not used here.
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"           # strip an anchor suffix
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      echo "BROKEN: $file -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$file" | sed -E 's/^\]\(//; s/\)$//')
done

# Code-tree citations. Outside a git checkout, fall back to every .md file
# on disk (build trees excluded).
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  known=$(git ls-files '*.md' | xargs -r -n1 basename | sort -u)
  sources=$(git ls-files src bench tools tests)
else
  known=$(find . -name '*.md' -not -path './build*' -exec basename {} \; |
          sort -u)
  sources=$(find src bench tools tests -type f)
fi
while IFS= read -r hit; do
  [[ -z "$hit" ]] && continue
  location=${hit%:*}                # file:line
  cite=${hit##*:}
  if ! grep -qxF "${cite##*/}" <<<"$known"; then
    echo "BROKEN: $location cites $cite (no such .md file)"
    fail=1
  fi
done < <(grep -nE '[A-Za-z0-9_.-]+\.md\b' $sources /dev/null |
         sed -E 's#https?://[^ )"]*##g' |
         grep -oE '^[^:]+:[0-9]+:|[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' |
         awk '/:$/ {loc = $0; next} {print loc $0}')

if [[ $fail -ne 0 ]]; then
  echo "docs link check failed"
  exit 1
fi
echo "docs link check OK (${FILES[*]}; code-tree .md citations)"
