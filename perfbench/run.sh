#!/usr/bin/env bash
# Runs one benchmark workload:
#   bash perfbench/run.sh --workload <iid-scan|noniid-b100|tpch-compare> \
#        --seed <n> --seconds <s> --trace <0|1>
# Builds first when needed (perfbench/build.sh).  Progress goes to stderr;
# the last line on stdout is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
bash perfbench/build.sh
out=".bench_build/perfbench"
work="$out/work"
rm -rf "$work"
mkdir -p "$work/tmp"

java_opts=(
  -Xmx3g -Xss16m -XX:-UsePerfData
  -XX:+IgnoreUnrecognizedVMOptions
  --add-opens=java.base/java.lang=ALL-UNNAMED
  --add-opens=java.base/java.lang.invoke=ALL-UNNAMED
  --add-opens=java.base/java.lang.reflect=ALL-UNNAMED
  --add-opens=java.base/java.io=ALL-UNNAMED
  --add-opens=java.base/java.net=ALL-UNNAMED
  --add-opens=java.base/java.nio=ALL-UNNAMED
  --add-opens=java.base/java.util=ALL-UNNAMED
  --add-opens=java.base/java.util.concurrent=ALL-UNNAMED
  --add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED
  --add-opens=java.base/jdk.internal.ref=ALL-UNNAMED
  --add-opens=java.base/sun.nio.ch=ALL-UNNAMED
  --add-opens=java.base/sun.nio.cs=ALL-UNNAMED
  --add-opens=java.base/sun.security.action=ALL-UNNAMED
  --add-opens=java.base/sun.util.calendar=ALL-UNNAMED
  -Djdk.reflect.useDirectMethodHandle=false
  -Dio.netty.tryReflectionSetAccessible=true
  -Djava.io.tmpdir="$root/$work/tmp"
  -Dlog4j.configurationFile="$root/perfbench/log4j2.properties"
  -Xlog:cds=off -Xlog:cds+dynamic=off
  -cp "$(cat "$out/classpath")"
)

# Class-data sharing: after each build, one unmeasured run records the
# classes a benchmark run loads; every measured run maps that archive,
# which cuts JVM and Spark start-up by several seconds.
if [ ! -f "$out/classes.jsa" ]; then
  echo "run.sh: recording the class-data-sharing archive" >&2
  java "${java_opts[@]}" -XX:ArchiveClassesAtExit="$root/$out/classes.jsa" \
    repro.perfbench.Main --out-dir "$root/$out/archive-run" \
    --workload tpch-compare --seed 0 --seconds 1 --trace 1 > /dev/null
  rm -rf "$work"
  mkdir -p "$work/tmp"
fi

exec java "${java_opts[@]}" -XX:SharedArchiveFile="$root/$out/classes.jsa" \
  repro.perfbench.Main --out-dir "$root/$out" "$@"
