package repro.ml

/** Minimal learning substrate for the event-identification model.
  *
  * The paper trains "a learning-based model for identifying the
  * user-defined event patterns" on segments designated through the Event
  * Editor. Training sets are small (hundreds of analyst-labeled segments),
  * so a driver-side batch-gradient-descent logistic regression with L2
  * regularization over standardized features is the right scale — no
  * external ML dependency is available offline, and MLlib would be
  * overkill for a few hundred rows.
  */
object LogisticRegression {

  /** Per-feature affine standardization fitted on the training set
    * (zero mean, unit variance; constant features pass through). */
  final case class Standardizer(mean: Array[Double], std: Array[Double]) extends Serializable {
    def transform(x: Array[Double]): Array[Double] = {
      val out = new Array[Double](x.length)
      var i = 0
      while (i < x.length) { out(i) = (x(i) - mean(i)) / std(i); i += 1 }
      out
    }
  }

  object Standardizer {
    def fit(xs: Seq[Array[Double]]): Standardizer = {
      require(xs.nonEmpty, "cannot fit standardizer on empty data")
      val d = xs.head.length
      val mean = new Array[Double](d)
      val std = new Array[Double](d)
      xs.foreach { x => var i = 0; while (i < d) { mean(i) += x(i); i += 1 } }
      var i = 0
      while (i < d) { mean(i) /= xs.size; i += 1 }
      xs.foreach { x => var j = 0; while (j < d) { val c = x(j) - mean(j); std(j) += c * c; j += 1 } }
      i = 0
      while (i < d) {
        std(i) = math.sqrt(std(i) / xs.size)
        if (std(i) < 1e-12) std(i) = 1.0 // constant feature: leave unscaled
        i += 1
      }
      Standardizer(mean, std)
    }
  }

  /** A fitted binary classifier: P(y=1 | x) = sigmoid(w·std(x) + b). */
  final case class Model(std: Standardizer, w: Array[Double], b: Double) extends Serializable {
    def probability(x: Array[Double]): Double = {
      val z = std.transform(x)
      var s = b
      var i = 0
      while (i < w.length) { s += w(i) * z(i); i += 1 }
      sigmoid(s)
    }
    def predict(x: Array[Double]): Int = if (probability(x) >= 0.5) 1 else 0
  }

  def sigmoid(z: Double): Double =
    if (z >= 0) 1.0 / (1.0 + math.exp(-z))
    else { val e = math.exp(z); e / (1.0 + e) }

  /** Mean negative log-likelihood + L2 penalty (for convergence tests). */
  def loss(m: Model, xs: Seq[Array[Double]], ys: Seq[Int], l2: Double): Double = {
    val n = xs.size
    var nll = 0.0
    xs.indices.foreach { i =>
      val p = math.min(math.max(m.probability(xs(i)), 1e-12), 1 - 1e-12)
      nll -= (if (ys(i) == 1) math.log(p) else math.log(1 - p))
    }
    nll / n + l2 * m.w.map(v => v * v).sum / 2
  }

  /** Gradient-descent step size. */
  private val LearningRate = 0.5
  /** Stop when a 10-iteration loss check improves by less than this. */
  private val Tolerance = 1e-7

  /** Fit by full-batch gradient descent.
    *
    * @param xs raw (unstandardized) feature vectors
    * @param ys labels in {0, 1}
    */
  def fit(xs: Seq[Array[Double]], ys: Seq[Int],
          l2: Double = 1e-3, maxIter: Int = 500): Model = {
    require(xs.nonEmpty && xs.size == ys.size, "bad training set")
    require(ys.forall(y => y == 0 || y == 1), "labels must be 0/1")
    val standardizer = Standardizer.fit(xs)
    val zs = xs.map(standardizer.transform).toArray
    val d = zs.head.length
    val n = zs.length
    var w = new Array[Double](d)
    var b = 0.0
    var prevLoss = Double.MaxValue
    var iter = 0
    var done = false
    while (iter < maxIter && !done) {
      val gw = new Array[Double](d)
      var gb = 0.0
      var i = 0
      while (i < n) {
        var s = b
        var j = 0
        while (j < d) { s += w(j) * zs(i)(j); j += 1 }
        val err = sigmoid(s) - ys(i)
        j = 0
        while (j < d) { gw(j) += err * zs(i)(j); j += 1 }
        gb += err
        i += 1
      }
      var j = 0
      while (j < d) { w(j) -= LearningRate * (gw(j) / n + l2 * w(j)); j += 1 }
      b -= LearningRate * gb / n
      if (iter % 10 == 0) {
        val cur = loss(Model(standardizer, w, b), xs, ys, l2)
        if (prevLoss - cur < Tolerance) done = true
        prevLoss = cur
      }
      iter += 1
    }
    Model(standardizer, w, b)
  }
}
