#!/usr/bin/env bash
# Builds the benchmark: compiles the program under src/main/scala together
# with perfbench/src into .bench_build/perfbench/perfbench.jar and writes the
# run classpath to .bench_build/perfbench/classpath.  Spark and the Scala
# compiler come from the Spark distribution at $SPARK_HOME (else the one
# whose spark-submit is on PATH); the DuckDB JDBC driver, used by
# repro.Oracle, from the local coursier cache.  Sources newer than the last
# build trigger a rebuild.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out=".bench_build/perfbench"
spark_home="${SPARK_HOME:-$(dirname "$(dirname "$(command -v spark-submit || echo .)")")}"
jars="$spark_home/jars"

for d in src/main/scala perfbench/src; do
  [ -d "$d" ] || { echo "build.sh: missing source directory $d" >&2; exit 2; }
done
[ -f "$jars/scala-compiler-2.13.17.jar" ] || { echo "build.sh: no Scala compiler in $jars" >&2; exit 2; }

duckdb="$(find "${COURSIER_CACHE:-$HOME/.cache/coursier/v1}" -name 'duckdb_jdbc-1.0.0.jar' -print -quit 2>/dev/null || true)"
[ -n "$duckdb" ] || { echo "build.sh: duckdb_jdbc-1.0.0.jar not found in the coursier cache" >&2; exit 2; }

if [ -f "$out/stamp" ] && [ -z "$(find src/main/scala perfbench/src perfbench/build.sh -newer "$out/stamp" -print -quit)" ]; then
  exit 0
fi

rm -rf "$out/classes" "$out/perfbench.jar" "$out/classes.jsa"
mkdir -p "$out/classes"
find src/main/scala perfbench/src -name '*.scala' | sort > "$out/sources"
echo "build.sh: compiling $(wc -l < "$out/sources") sources" >&2
java -Xmx2g -Xss16m -XX:-UsePerfData -cp "$jars/*" scala.tools.nsc.Main \
  -nowarn -d "$out/classes" -classpath "$jars/*" "@$out/sources"
# A jar, not a directory: the JVM's class-data-sharing archive (run.sh)
# accepts only jars on the class path.
jar -J-XX:-UsePerfData cf "$out/perfbench.jar" -C "$out/classes" .
echo "$root/$out/perfbench.jar:$jars/*:$duckdb" > "$out/classpath"
touch "$out/stamp"
