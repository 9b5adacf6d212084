package org.apache.spark

/** Test access to the listener bus, which Spark keeps package-private. */
object ListenerBusDrain {
  /** Blocks until every listener has seen every event posted so far. */
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
