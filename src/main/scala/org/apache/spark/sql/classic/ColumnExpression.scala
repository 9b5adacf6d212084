package org.apache.spark.sql.classic

import org.apache.spark.sql.Column
import org.apache.spark.sql.catalyst.expressions.Expression

/** A column's Catalyst expression, before analysis. It lives in Spark's
  * package because the conversion is private to Spark. The sampling
  * kernel keys its plans on it: `Column` equality takes `lit(0L)` for
  * `lit(0.0)`, a Catalyst `Literal`'s does not.
  */
object ColumnExpression {
  def apply(c: Column): Expression = ColumnNodeToExpressionConverter(c.node)
}
