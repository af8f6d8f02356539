package org.apache.spark

/** Waits for Spark's asynchronous listener bus to deliver every event posted
  * so far, so that listener counts read afterwards are complete. Lives in
  * this package because the bus is `private[spark]`. */
object ListenerDrain {
  def apply(sc: SparkContext, timeoutMs: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
