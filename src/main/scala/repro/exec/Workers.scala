package repro.exec

import java.util.concurrent.{CountDownLatch, ExecutorService, Executors}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** The worker threads of the exec operators: the calling thread plus one
  * fixed pool of `P - 1` daemon threads, created on first use. The pool's
  * threads never time out, so a thread's allocation and its per-thread
  * kernels ([[repro.core.RsumBatchD.forThread]]) outlive each call.
  *
  * A parallel step is a fork and a join: `body(0)` runs on the caller,
  * `body(1 until n)` on the pool, and the caller returns once all of them
  * have. No task ever waits for another, so calls from several threads may
  * share the pool; tasks beyond its size queue and run late, never wrongly.
  */
private[exec] object Workers {

  /** The default worker count: one per available processor. */
  val P: Int = Runtime.getRuntime.availableProcessors

  private lazy val pool: ExecutorService = {
    val id = new AtomicInteger
    Executors.newFixedThreadPool(math.max(1, P - 1), { (r: Runnable) =>
      val t = new Thread(r, s"repro-exec-worker-${id.incrementAndGet()}")
      t.setDaemon(true)
      t
    })
  }

  /** Runs `body(i)` for `i` in `0 until n`, `body(0)` on the calling thread,
    * and returns when every call has returned. If any call throws,
    * `onFailure` runs on its thread (so that the others can stop early),
    * and the first throwable is rethrown to the caller as itself once all
    * calls have ended.
    */
  def run(n: Int, onFailure: () => Unit = () => ())(body: Int => Unit): Unit = {
    val failure = new AtomicReference[Throwable]
    def call(i: Int): Unit =
      try body(i)
      catch { case t: Throwable => failure.compareAndSet(null, t); onFailure() }
    val done = new CountDownLatch(n - 1)
    var i = 1
    while (i < n) {
      val w = i
      pool.execute(() => try call(w) finally done.countDown())
      i += 1
    }
    call(0)
    // The workers write the caller's arrays, so wait for every one even
    // if interrupted, and keep the interrupt for the caller.
    var interrupted = false
    var waiting = true
    while (waiting)
      try { done.await(); waiting = false }
      catch { case _: InterruptedException => interrupted = true }
    if (interrupted) Thread.currentThread.interrupt()
    val t = failure.get
    if (t != null) throw t
  }
}
