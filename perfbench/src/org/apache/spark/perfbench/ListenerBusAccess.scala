package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Lets the benchmark wait until every posted listener event has been
  * delivered, so counters read after a query are complete.  The bus is
  * `private[spark]`, hence this object's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
