#!/usr/bin/env python3
"""Translation benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload week-bulk --seed 1 --seconds 10 --trace 0

Builds the benchmark package (perfbench/build.sbt, which compiles the
program's sources in src/main/scala together with the benchmark code) into
.bench_build/ when the sources changed since the last build, then runs the
benchmark on a fixed local Spark master. The last line of stdout is the result
object; the build's output goes to stderr.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(ROOT, "src", "main", "scala")
RUN_TIMEOUT_S = 170

# JVM 17 module opens that Spark needs (the same list the root build uses).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def source_digest():
    """Digest of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    roots = [PROGRAM, os.path.join(BENCH, "src", "main"), os.path.join(BENCH, "project")]
    files = [os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt unless the last build saw the same sources."""
    stamp = os.path.join(BUILD, "stamp")
    classpath = os.path.join(BUILD, "target", "classpath.txt")
    digest = source_digest()
    if os.path.exists(classpath) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                return classpath
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts = ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos] + opts
        env["SBT_OPTS"] = " ".join(opts)
    os.makedirs(BUILD, exist_ok=True)
    r = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
                       cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(classpath):
        sys.exit("benchmark build failed")
    with open(stamp, "w") as fh:
        fh.write(digest)
    return classpath


def driver_heap():
    """Half of MemTotal in GiB, clamped to 2..8 GiB (the rule the tests use)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return "%dg" % min(8, max(2, g))
    except OSError:
        pass
    return "2g"


def main():
    if not os.path.isdir(PROGRAM):
        sys.exit("run from the repository root: %s not found" % os.path.relpath(PROGRAM, ROOT))
    with open(build()) as fh:
        cp = fh.read().strip()
    cmd = (["java"] + ["--add-opens=%s=ALL-UNNAMED" % p for p in OPENS] +
           ["-Djdk.reflect.useDirectMethodHandleAccessor=false",
            "-Dspark.driver.host=127.0.0.1",
            "-Xmx" + driver_heap(),
            "-Djava.io.tmpdir=" + os.path.join(BUILD, "tmp"),
            "-Dspark.sql.warehouse.dir=" + os.path.join(BUILD, "warehouse"),
            "-cp", cp, "tripsbench.Main"] + sys.argv[1:])
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        sys.exit("benchmark run did not finish")
    sys.exit(code)


if __name__ == "__main__":
    main()
