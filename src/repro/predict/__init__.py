"""Value predictors: last-value, stride, FCM, hybrid, plus the hardware
value-prediction table and confidence estimation."""
