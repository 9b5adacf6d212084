package repro.perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark work done under one tag: a span id or a phase name. */
final case class TagTotals(
    jobs: Int,
    taskMs: Long,
    gcMs: Long,
    bytesRead: Long,
    shuffleBytes: Long,
    peakExecBytes: Long,
    jobIntervals: Seq[(Long, Long)],
) {
  def +(o: TagTotals): TagTotals = TagTotals(
    jobs + o.jobs, taskMs + o.taskMs, gcMs + o.gcMs, bytesRead + o.bytesRead,
    shuffleBytes + o.shuffleBytes, math.max(peakExecBytes, o.peakExecBytes),
    jobIntervals ++ o.jobIntervals)
}

object TagTotals {
  val empty: TagTotals = TagTotals(0, 0L, 0L, 0L, 0L, 0L, Nil)
}

/** The benchmark's own `SparkListener`.
  *
  * Each job is attributed to the value the local property [[SparkCounters.TagKey]]
  * had on the thread that submitted it, and each task to its stage's job.
  * Events arrive on the listener-bus thread; read totals only after
  * [[drain]].
  */
final class SparkCounters extends SparkListener {
  import SparkCounters._

  private final class Acc {
    var jobs = 0
    var taskMs = 0L
    var gcMs = 0L
    var bytesRead = 0L
    var shuffleBytes = 0L
    var peak = 0L
    val intervals = mutable.ArrayBuffer.empty[(Long, Long)]
  }

  private val stageTag = mutable.HashMap.empty[Int, String]
  private val jobTag = mutable.HashMap.empty[Int, String]
  private val jobStart = mutable.HashMap.empty[Int, Long]
  private val accs = mutable.HashMap.empty[String, Acc]

  private def acc(tag: String): Acc = accs.getOrElseUpdate(tag, new Acc)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(TagKey))).getOrElse(Untagged)
    jobTag(e.jobId) = tag
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(stageTag(_) = tag)
    acc(tag).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for (tag <- jobTag.remove(e.jobId); t0 <- jobStart.remove(e.jobId))
      acc(tag).intervals += ((t0, e.time))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      val a = acc(stageTag.getOrElse(e.stageId, Untagged))
      a.taskMs += m.executorRunTime
      a.gcMs += m.jvmGCTime
      a.bytesRead += m.inputMetrics.bytesRead
      a.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      a.peak = math.max(a.peak, m.peakExecutionMemory)
    }
  }

  /** Totals recorded under `tag` so far. */
  def totals(tag: String): TagTotals = synchronized {
    accs.get(tag).fold(TagTotals.empty) { a =>
      TagTotals(a.jobs, a.taskMs, a.gcMs, a.bytesRead, a.shuffleBytes, a.peak, a.intervals.toList)
    }
  }
}

object SparkCounters {
  /** Local property that names the span or phase a job belongs to. */
  val TagKey = "perfbench.tag"
  /** Tag of jobs submitted with no [[TagKey]] set. */
  val Untagged = "untagged"

  /** Registers a fresh listener on `sc`. */
  def attach(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters
    sc.addSparkListener(c)
    c
  }

  /** Blocks until the listener has seen every event posted so far. */
  def drain(sc: SparkContext): Unit = org.apache.spark.perfbench.ListenerBusAccess.drain(sc)
}

/** One timed call into a layer.  Times are taken on the calling thread;
  * the epoch-millisecond bounds line up with Spark's job event times.
  */
final class Span(val id: Long, val name: String) {
  var startNs = 0L
  var endNs = 0L
  var startMs = 0L
  var endMs = 0L
  val children = mutable.ArrayBuffer.empty[Span]

  def tag: String = s"span-$id"
  def wallMs: Double = (endNs - startNs) / 1e6
  /** Span time minus the time its child spans cover. */
  def selfMs: Double = wallMs - children.map(_.wallMs).sum
  def subtree: Seq[Span] = this +: children.toSeq.flatMap(_.subtree)
}

/** Records spans around calls into the program's public entry points and
  * tags the Spark jobs each call submits.  Spans stay in memory; the
  * caller reads them after the run.
  */
final class Tracer(sc: SparkContext) {
  private var nextId = 0L
  private var stack: List[Span] = Nil

  def span[T](name: String)(body: => T): T = runSpan(name, body)._1

  /** Runs `body` in a new span and returns the span with the result. */
  def runSpan[T](name: String, body: => T): (T, Span) = {
    val s = new Span(nextId, name)
    nextId += 1
    stack.headOption.foreach(_.children += s)
    val outerTag = sc.getLocalProperty(SparkCounters.TagKey)
    sc.setLocalProperty(SparkCounters.TagKey, s.tag)
    stack = s :: stack
    s.startMs = System.currentTimeMillis()
    s.startNs = System.nanoTime()
    try (body, s)
    finally {
      s.endNs = System.nanoTime()
      s.endMs = System.currentTimeMillis()
      stack = stack.tail
      sc.setLocalProperty(SparkCounters.TagKey, outerTag)
    }
  }
}
