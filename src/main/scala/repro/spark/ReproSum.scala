package repro.spark

import java.nio.ByteBuffer

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.expressions.aggregate.TypedImperativeAggregate
import org.apache.spark.sql.catalyst.trees.UnaryLike
import org.apache.spark.sql.types.{DataType, Decimal, DoubleType}

import repro.core.BufferedReproDouble

/** Aggregation buffer of [[ReproSum]]: the paper's summation buffer (state
  * + pending values) plus a non-null row count for SQL `SUM` semantics
  * (empty group -> NULL). A group's state is five objects: this, its
  * [[repro.core.ReproSlotsD]] and the slots' three arrays, plus the pending
  * array when `bufferSize > 0`.
  */
final class ReproSumState(levels: Int, bufferSize: Int) extends BufferedReproDouble(levels, bufferSize) {
  var count: Long = 0L
}

/** The paper's reproducible SUM as a Catalyst aggregate (§V-D "system
  * integration"): `RSUM(expression, L)`, registered in the session function
  * registry so plain SQL uses it. `bufferSize == 0` is the §IV drop-in
  * path (scalar `operator+=` per row); `bufferSize > 0` is the §V
  * summation-buffer path (append per row, flush through the batched
  * kernel).
  *
  * Spark executes this through ObjectHashAggregateExec: per-partition
  * partial aggregation followed by a shuffle and a final merge — exactly
  * the thread-private-table + shared-table-merge structure of Alg. 4. The
  * result is bit-identical for any partitioning, input order and merge
  * tree, because update is order-independent and merge is associative and
  * commutative on canonical states.
  */
case class ReproSum(child: Expression,
                    levels: Int,
                    bufferSize: Int,
                    mutableAggBufferOffset: Int = 0,
                    inputAggBufferOffset: Int = 0)
    extends TypedImperativeAggregate[ReproSumState]
    with UnaryLike[Expression] {

  require(levels >= 1 && levels <= 16, s"rsum: levels must be in [1,16], got $levels")
  require(bufferSize >= 0 && bufferSize <= (1 << 20), s"rsum: bad buffer size $bufferSize")

  override def createAggregationBuffer(): ReproSumState =
    new ReproSumState(levels, bufferSize)

  override def update(state: ReproSumState, input: InternalRow): ReproSumState = {
    val v = child.eval(input)
    if (v != null) {
      // numeric coercion done here instead of via the (private[sql])
      // ImplicitCastInputTypes machinery
      val d = v match {
        case x: Double  => x
        case x: Float   => x.toDouble
        case x: Long    => x.toDouble
        case x: Int     => x.toDouble
        case x: Short   => x.toDouble
        case x: Byte    => x.toDouble
        case x: Decimal => x.toDouble
        case other => throw new IllegalArgumentException(
          s"rsum: unsupported input ${other.getClass.getName}")
      }
      state.add(d)
      state.count += 1
    }
    state
  }

  override def merge(state: ReproSumState, other: ReproSumState): ReproSumState = {
    state.merge(other)
    state.count += other.count
    state
  }

  override def eval(state: ReproSumState): Any =
    if (state.count == 0) null else state.value

  /** The count, then the [[BufferedReproDouble]] image, in one array. */
  override def serialize(state: ReproSumState): Array[Byte] = {
    val bb = state.image(8)
    bb.putLong(0, state.count)
    bb.array()
  }

  /** Reads the image in place: no copy of `bytes` and no state besides the
    * returned one.
    */
  override def deserialize(bytes: Array[Byte]): ReproSumState = {
    val bb = ByteBuffer.wrap(bytes)
    val count = bb.getLong
    val st = BufferedReproDouble.read(bb, new ReproSumState(_, _))
    st.count = count
    require(st.levels == levels, s"rsum: a repro<double,${st.levels}> image for a repro<double,$levels> aggregate")
    st
  }

  override def nullable: Boolean = true
  override def dataType: DataType = DoubleType

  override def withNewMutableAggBufferOffset(newOffset: Int): ReproSum =
    copy(mutableAggBufferOffset = newOffset)
  override def withNewInputAggBufferOffset(newOffset: Int): ReproSum =
    copy(inputAggBufferOffset = newOffset)
  override protected def withNewChildInternal(newChild: Expression): ReproSum =
    copy(child = newChild)

  override def prettyName: String = if (bufferSize == 0) "rsum" else "rsum_buffered"
}

/** Registration of the reproducible aggregates in a SparkSession (the
  * paper's "fix for SUM / alternate aggregate function RSUM(expr, L)").
  */
object ReproFunctions {

  /** Default precision: L=2 matches the accuracy of conventional doubles
    * (paper §VI-B).
    */
  val DefaultLevels = 2

  /** Default summation-buffer size for the buffered SQL aggregate. The
    * Eq. 4 model needs the group count, unknown at registration; 256 is in
    * the flat region of the paper's Fig. 8 for small-to-medium group
    * counts.
    */
  val DefaultBufferSize = 256

  /** An integral literal (TINYINT to BIGINT) that fits in an `Int`;
    * anything else fails with an `IllegalArgumentException` naming `what`.
    */
  private def intArg(e: Expression, what: String): Int = {
    require(e.foldable, s"$what must be a literal")
    e.eval() match {
      case v: Byte                 => v
      case v: Short                => v
      case v: Int                  => v
      case v: Long if v.isValidInt => v.toInt
      case v => throw new IllegalArgumentException(s"$what must be an integer literal within Int range, got $v")
    }
  }

  /** Registers `rsum(x[, levels])` and `rsum_buffered(x[, levels[, bsz]])`
    * as temporary functions in the session's registry.
    */
  def register(spark: SparkSession): Unit = {
    val registry = spark.sessionState.functionRegistry
    registry.createOrReplaceTempFunction("rsum", {
      case Seq(child)     => ReproSum(child, DefaultLevels, 0)
      case Seq(child, l)  => ReproSum(child, intArg(l, "rsum levels"), 0)
      case args           => throw new IllegalArgumentException(
        s"rsum expects (expr[, levels]), got ${args.size} arguments")
    }, "scala_udf")
    registry.createOrReplaceTempFunction("rsum_buffered", {
      case Seq(child)        => ReproSum(child, DefaultLevels, DefaultBufferSize)
      case Seq(child, l)     => ReproSum(child, intArg(l, "rsum levels"), DefaultBufferSize)
      case Seq(child, l, b)  => ReproSum(child, intArg(l, "rsum levels"), intArg(b, "rsum buffer size"))
      case args              => throw new IllegalArgumentException(
        s"rsum_buffered expects (expr[, levels[, bsz]]), got ${args.size} arguments")
    }, "scala_udf")
  }
}
