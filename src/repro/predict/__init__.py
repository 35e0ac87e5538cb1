"""Value predictors: last-value, stride, FCM, DFCM, hybrid, plus the
hardware value-prediction table."""
